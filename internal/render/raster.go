package render

import (
	"math"

	"colza/internal/vtk"
)

// Camera describes the view. FovY is in degrees.
type Camera struct {
	Eye, LookAt, Up Vec3
	FovY            float64
	Near, Far       float64
}

// DefaultCamera frames the axis-aligned box [lo, hi] from a three-quarter
// view.
func DefaultCamera(lo, hi Vec3) Camera {
	center := lo.Add(hi).Scale(0.5)
	diag := hi.Sub(lo).Norm()
	if diag == 0 {
		diag = 1
	}
	eye := center.Add(Vec3{1.1, 0.8, 1.4}.Normalize().Scale(diag * 1.4))
	return Camera{
		Eye: eye, LookAt: center, Up: Vec3{0, 1, 0},
		FovY: 45, Near: diag * 0.01, Far: diag * 10,
	}
}

// viewProjection composes the camera matrices.
func (c Camera) viewProjection(aspect float64) Mat4 {
	near, far := c.Near, c.Far
	if near <= 0 {
		near = 0.1
	}
	if far <= near {
		far = near * 1000
	}
	fov := c.FovY
	if fov <= 0 {
		fov = 45
	}
	return Perspective(fov*math.Pi/180, aspect, near, far).Mul(LookAt(c.Eye, c.LookAt, c.Up))
}

// RasterizeMesh renders a triangle mesh into the framebuffer with
// z-buffering, per-vertex colors from the scalar field, and Lambertian
// shading against a headlight. scalarRange normalizes scalars into the
// colormap domain.
//
// A triangle is projected first and shaded only once it draws: one with a
// vertex at or behind the eye plane, without area, or with no pixel centre
// near its bounding box (off screen, or small and between centres) costs
// the x, y and w of three projections and nothing else; z is formed and
// divided by w only for the rest. Its facet normal and vertex colours are
// derived at its first pixel that passes the depth test, so a triangle
// hidden behind others or covering no pixel centre is never shaded
// (triShader).
func RasterizeMesh(im *Image, cam Camera, mesh *vtk.TriangleMesh, cmap ColorMap, scalarRange [2]float64) {
	nt := mesh.NumTriangles()
	if nt == 0 {
		return
	}
	vp := cam.viewProjection(float64(im.W) / float64(im.H))
	span := scalarRange[1] - scalarRange[0]
	if span == 0 {
		span = 1
	}
	sh := triShader{
		mesh: mesh, cmap: cmap, lightDir: cam.LookAt.Sub(cam.Eye).Normalize().Scale(-1),
		lo: scalarRange[0], span: span,
	}
	halfW, halfH := 0.5*float64(im.W), 0.5*float64(im.H)

	var sx, sy, sz, sw [3]float64
	for t := 0; t < nt; t++ {
		pos := (*[9]float32)(mesh.Positions[9*t:])
		visible := true
		for v := 0; v < 3; v++ {
			// vp.MulPoint, written out: the call copies the matrix.
			px, py, pz := float64(pos[3*v]), float64(pos[3*v+1]), float64(pos[3*v+2])
			x := vp[0]*px + vp[4]*py + vp[8]*pz + vp[12]
			y := vp[1]*px + vp[5]*py + vp[9]*pz + vp[13]
			w := vp[3]*px + vp[7]*py + vp[11]*pz + vp[15]
			if w <= 1e-9 {
				visible = false
				break
			}
			sx[v] = (x/w + 1) * halfW
			sy[v] = (1 - y/w) * halfH
			sw[v] = w
		}
		if !visible {
			continue
		}
		area := (sx[1]-sx[0])*(sy[2]-sy[0]) - (sx[2]-sx[0])*(sy[1]-sy[0])
		if math.Abs(area) < 1e-12 {
			continue
		}
		box, ok := coveredBox(im, &sx, &sy, area)
		if !ok {
			continue
		}
		for v := 0; v < 3; v++ {
			px, py, pz := float64(pos[3*v]), float64(pos[3*v+1]), float64(pos[3*v+2])
			sz[v] = (vp[2]*px + vp[6]*py + vp[10]*pz + vp[14]) / sw[v]
		}
		sh.t, sh.ready = t, false
		fillTriangle(im, box, 1/area, &sx, &sy, &sz, &sh)
	}
}

// triShader holds the vertex colours of the triangle being filled, derived
// on demand (shade) and memoised across triangles: the colormap and the
// Lambert term are looked up again only when a vertex's scalar or the
// triangle's normal differs, by bit pattern, from the previous one looked
// up — an isosurface carries one scalar per level.
type triShader struct {
	mesh     *vtk.TriangleMesh
	cmap     ColorMap
	lightDir Vec3
	lo, span float64 // the scalar range's start and extent

	t                              int  // the triangle being filled
	ready                          bool // r, g, b hold triangle t's colours
	r, g, b                        [3]float64
	primed                         bool // the memo below holds a lookup
	lastS                          uint32
	lastN                          [3]uint32
	lastR, lastG, lastB, lastShade float64
}

// shade derives triangle t's facet normal, Lambert term and vertex colours.
func (sh *triShader) shade() {
	nrm := sh.mesh.FacetNormal(sh.t)
	if n := [3]uint32{math.Float32bits(nrm[0]), math.Float32bits(nrm[1]), math.Float32bits(nrm[2])}; !sh.primed || n != sh.lastN {
		sh.lastN = n
		dir := Vec3{float64(nrm[0]), float64(nrm[1]), float64(nrm[2])}
		sh.lastShade = 0.25 + 0.75*math.Abs(dir.Dot(sh.lightDir)) // two-sided shading
	}
	scal := (*[3]float32)(sh.mesh.Scalars[3*sh.t:])
	for v := 0; v < 3; v++ {
		if s := math.Float32bits(scal[v]); !sh.primed || s != sh.lastS {
			sh.lastS = s
			r, g, b := sh.cmap((float64(scal[v]) - sh.lo) / sh.span)
			sh.lastR, sh.lastG, sh.lastB = float64(r), float64(g), float64(b)
		}
		sh.primed = true
		sh.r[v] = sh.lastR * sh.lastShade
		sh.g[v] = sh.lastG * sh.lastShade
		sh.b[v] = sh.lastB * sh.lastShade
	}
	sh.ready = true
}

// pixelBox is an inclusive pixel rectangle.
type pixelBox struct{ minX, maxX, minY, maxY int }

// centreSlack is δ: how far outside a triangle's bounding box a pixel
// centre is still scanned.
const centreSlack = 0x1p-6

// coveredBox returns the pixels fillTriangle must test for a screen-space
// triangle (area is twice its signed area): those whose centre lies within
// δ of its bounding box, clamped to the image; ok is false when that is
// empty.
//
// The dropped pixels are ones the per-pixel test rejects. With D the box's
// larger extent + 2 px, a centre over δ/2 outside the box (its limits round
// by under 2^-20 px in any image that fits in memory) has an exact
// barycentric below −η = −δ/(4D). The edge functions and the area are off
// by at most 9u·D², u = 2^-53; under η·|area|/8 that keeps such a w0 or w1
// negative, and w2 = 1 − w0 − w1 too when w0, w1 > −η. That needs |area| >
// 288u·D³/δ; the guard takes 2^-38·D³. A triangle failing it (a sliver at
// rounding level, a non-finite extent) keeps the floor/ceil box.
func coveredBox(im *Image, sx, sy *[3]float64, area float64) (box pixelBox, ok bool) {
	x0, x1 := min(sx[0], sx[1], sx[2]), max(sx[0], sx[1], sx[2])
	y0, y1 := min(sy[0], sy[1], sy[2]), max(sy[0], sy[1], sy[2])
	if d := max(x1-x0, y1-y0) + 2; math.Abs(area) > 0x1p-38*d*d*d {
		box = pixelBox{int(math.Ceil(x0 - (0.5 + centreSlack))), int(math.Floor(x1 - (0.5 - centreSlack))),
			int(math.Ceil(y0 - (0.5 + centreSlack))), int(math.Floor(y1 - (0.5 - centreSlack)))}
	} else {
		box = pixelBox{int(math.Floor(x0)), int(math.Ceil(x1)), int(math.Floor(y0)), int(math.Ceil(y1))}
	}
	if box.minX < 0 {
		box.minX = 0
	}
	if box.minY < 0 {
		box.minY = 0
	}
	if box.maxX >= im.W {
		box.maxX = im.W - 1
	}
	if box.maxY >= im.H {
		box.maxY = im.H - 1
	}
	return box, box.minX <= box.maxX && box.minY <= box.maxY
}

// fillTriangle rasterizes one screen-space triangle over box (from
// coveredBox) with barycentric interpolation and a z-buffer test; inv is
// one over twice its signed area. Its colours are sh's, shaded at the
// first pixel that passes the depth test.
func fillTriangle(im *Image, box pixelBox, inv float64, sx, sy, sz *[3]float64, sh *triShader) {
	x0, y0, x1, y1, x2, y2 := sx[0], sy[0], sx[1], sy[1], sx[2], sy[2]
	for py := box.minY; py <= box.maxY; py++ {
		fy := float64(py) + 0.5
		dy0, dy1, dy2 := y0-fy, y1-fy, y2-fy
		row := py * im.W
		for px := box.minX; px <= box.maxX; px++ {
			fx := float64(px) + 0.5
			w0 := ((x1-fx)*dy2 - (x2-fx)*dy1) * inv
			if w0 < 0 {
				continue
			}
			w1 := ((x2-fx)*dy0 - (x0-fx)*dy2) * inv
			if w1 < 0 {
				continue
			}
			w2 := 1 - w0 - w1
			if w2 < 0 {
				continue
			}
			z := float32(w0*sz[0] + w1*sz[1] + w2*sz[2])
			idx := row + px
			if z >= im.Depth[idx] {
				continue
			}
			im.Depth[idx] = z
			if !sh.ready {
				sh.shade()
			}
			r := w0*sh.r[0] + w1*sh.r[1] + w2*sh.r[2]
			g := w0*sh.g[0] + w1*sh.g[1] + w2*sh.g[2]
			b := w0*sh.b[0] + w1*sh.b[1] + w2*sh.b[2]
			o := 4 * idx
			im.RGBA[o] = clamp8(r)
			im.RGBA[o+1] = clamp8(g)
			im.RGBA[o+2] = clamp8(b)
			im.RGBA[o+3] = 255
		}
	}
}

func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v)
}
