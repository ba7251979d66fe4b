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
// A triangle is projected first and shaded only if it survives: one with a
// vertex at or behind the eye plane, off screen, or without area costs three
// projections and nothing else. The colormap and the shading term are
// looked up again only when a vertex's scalar or normal differs from the
// previous vertex's — an isosurface carries one scalar per level and one
// normal per facet.
func RasterizeMesh(im *Image, cam Camera, mesh *vtk.TriangleMesh, cmap ColorMap, scalarRange [2]float64) {
	nt := mesh.NumTriangles()
	if nt == 0 {
		return
	}
	vp := cam.viewProjection(float64(im.W) / float64(im.H))
	lightDir := cam.LookAt.Sub(cam.Eye).Normalize().Scale(-1)
	span := scalarRange[1] - scalarRange[0]
	if span == 0 {
		span = 1
	}
	halfW, halfH := 0.5*float64(im.W), 0.5*float64(im.H)

	// The last scalar and normal looked up (by bit pattern) and what they
	// mapped to.
	var (
		primed                         bool
		lastS                          uint32
		lastN                          [3]uint32
		lastR, lastG, lastB, lastShade float64
	)

	var sx, sy, sz [3]float64
	var colR, colG, colB [3]float64
	for t := 0; t < nt; t++ {
		pos := (*[9]float32)(mesh.Positions[9*t:])
		visible := true
		for v := 0; v < 3; v++ {
			// vp.MulPoint, written out: the call copies the matrix.
			px, py, pz := float64(pos[3*v]), float64(pos[3*v+1]), float64(pos[3*v+2])
			x := vp[0]*px + vp[4]*py + vp[8]*pz + vp[12]
			y := vp[1]*px + vp[5]*py + vp[9]*pz + vp[13]
			z := vp[2]*px + vp[6]*py + vp[10]*pz + vp[14]
			w := vp[3]*px + vp[7]*py + vp[11]*pz + vp[15]
			if w <= 1e-9 {
				visible = false
				break
			}
			sx[v] = (x/w + 1) * halfW
			sy[v] = (1 - y/w) * halfH
			sz[v] = z / w
		}
		if !visible {
			continue
		}
		box, ok := coveredBox(im, &sx, &sy)
		if !ok {
			continue
		}
		area := (sx[1]-sx[0])*(sy[2]-sy[0]) - (sx[2]-sx[0])*(sy[1]-sy[0])
		if math.Abs(area) < 1e-12 {
			continue
		}
		nrm := (*[9]float32)(mesh.Normals[9*t:])
		scal := (*[3]float32)(mesh.Scalars[3*t:])
		for v := 0; v < 3; v++ {
			n := [3]uint32{math.Float32bits(nrm[3*v]), math.Float32bits(nrm[3*v+1]), math.Float32bits(nrm[3*v+2])}
			if !primed || n != lastN {
				lastN = n
				dir := Vec3{float64(nrm[3*v]), float64(nrm[3*v+1]), float64(nrm[3*v+2])}
				lastShade = 0.25 + 0.75*math.Abs(dir.Dot(lightDir)) // two-sided shading
			}
			if s := math.Float32bits(scal[v]); !primed || s != lastS {
				lastS = s
				r, g, b := cmap((float64(scal[v]) - scalarRange[0]) / span)
				lastR, lastG, lastB = float64(r), float64(g), float64(b)
			}
			primed = true
			colR[v] = lastR * lastShade
			colG[v] = lastG * lastShade
			colB[v] = lastB * lastShade
		}
		fillTriangle(im, box, 1/area, &sx, &sy, &sz, &colR, &colG, &colB)
	}
}

// pixelBox is an inclusive pixel rectangle.
type pixelBox struct{ minX, maxX, minY, maxY int }

// coveredBox returns the pixels a screen-space triangle can cover: its
// bounding box clamped to the image; ok is false when that is empty.
func coveredBox(im *Image, sx, sy *[3]float64) (box pixelBox, ok bool) {
	box = pixelBox{
		minX: int(math.Floor(min(sx[0], sx[1], sx[2]))),
		maxX: int(math.Ceil(max(sx[0], sx[1], sx[2]))),
		minY: int(math.Floor(min(sy[0], sy[1], sy[2]))),
		maxY: int(math.Ceil(max(sy[0], sy[1], sy[2]))),
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
// one over twice its signed area.
func fillTriangle(im *Image, box pixelBox, inv float64, sx, sy, sz, cr, cg, cb *[3]float64) {
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
			r := w0*cr[0] + w1*cr[1] + w2*cr[2]
			g := w0*cg[0] + w1*cg[1] + w2*cg[2]
			b := w0*cb[0] + w1*cb[1] + w2*cb[2]
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
