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
// colormap domain. It is Rasterizer.RasterizeMesh on scratch of its own.
func RasterizeMesh(im *Image, cam Camera, mesh *vtk.TriangleMesh, cmap ColorMap, scalarRange [2]float64) {
	new(Rasterizer).RasterizeMesh(im, cam, mesh, cmap, scalarRange)
}

// Rasterizer draws meshes as RasterizeMesh does, on a projection window
// (128 KiB) it makes on first use and keeps, so that a caller drawing every
// iteration — a pipeline instance — allocates nothing for it after the
// first. The zero value is ready; one goroutine at a time.
type Rasterizer struct {
	window *projWindow
}

// RasterizeMesh: see the function of that name.
//
// Triangles are drawn in mesh order. Each vertex is projected once — its
// screen x and y, its depth z and its w — into a window of the most
// recently projected vertices that later triangles read (projector). A
// triangle with a vertex at or behind the eye plane, without area, or with
// no pixel centre near its bounding box (off screen, or small and between
// centres) is skipped. Its facet normal and vertex colours are derived at
// its first pixel that passes the depth test, so a triangle hidden behind
// others or covering no pixel centre is never shaded (triShader).
func (r *Rasterizer) RasterizeMesh(im *Image, cam Camera, mesh *vtk.TriangleMesh, cmap ColorMap, scalarRange [2]float64) {
	nt := mesh.NumTriangles()
	if nt == 0 {
		return
	}
	if r.window == nil {
		r.window = new(projWindow)
	}
	span := scalarRange[1] - scalarRange[0]
	if span == 0 {
		span = 1
	}
	sh := triShader{
		mesh: mesh, cmap: cmap, lightDir: cam.LookAt.Sub(cam.Eye).Normalize().Scale(-1),
		lo: scalarRange[0], span: span,
	}
	pj := projector{
		vp:    cam.viewProjection(float64(im.W) / float64(im.H)),
		halfW: 0.5 * float64(im.W), halfH: 0.5 * float64(im.H),
		positions: mesh.Positions,
		window:    r.window,
	}

	var sx, sy, sz [3]float64
	for t := 0; t < nt; t++ {
		ix := (*[3]uint32)(mesh.Indices[3*t:])
		visible := true
		for v, i := range ix {
			e := &pj.window[i%windowSize]
			if uint(pj.hi-int(i)-1) >= windowSize { // i ≥ hi, or i < hi − windowSize
				e = pj.miss(int(i))
			}
			if e.w <= 1e-9 {
				visible = false
				break
			}
			sx[v], sy[v], sz[v] = e.x, e.y, e.z
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
		sh.t, sh.ready = t, false
		fillTriangle(im, box, 1/area, &sx, &sy, &sz, &sh)
	}
}

// windowBits sizes the projection window: the 2^12 most recently projected
// vertices, 32 B each, 128 KiB. A triangle of an extracted isosurface uses
// vertices within about one plane of voxels of the newest (a few hundred to
// a few thousand), which the window holds; older ones are projected again.
const (
	windowBits = 12
	windowSize = 1 << windowBits
	ahead      = 256 // vertices projected per step of the window
)

// projWindow holds the projections of vertices [hi − windowSize, hi),
// vertex i in slot i mod windowSize.
type projWindow [windowSize]projection

// projection is one vertex on screen: x and y in pixels, z the depth the
// z-buffer compares, w the clip-space w.
type projection struct{ x, y, z, w float64 }

// projector projects mesh vertices through the camera. Meshes store their
// vertices in the order their triangles first use them — an extracted
// surface, AddTriangle and Append do — so a triangle almost always finds
// its vertices in the window or just past its end: the window then steps
// forward, projecting the next vertices in one run.
type projector struct {
	vp           Mat4
	halfW, halfH float64
	positions    []float32
	window       *projWindow
	hi           int        // the window holds vertices [hi − windowSize, hi)
	old          projection // a vertex from before the window
}

// miss returns the projection of vertex i, which the window does not hold,
// valid until the next call. A vertex past the window's end moves the
// window on to hold it and the ahead vertices after it (as many as the mesh
// has), projecting those it did not hold; one from before its start is
// projected on its own.
func (pj *projector) miss(i int) *projection {
	if i < pj.hi {
		pj.project(&pj.old, i)
		return &pj.old
	}
	hi := max(i+1, min(i+ahead, len(pj.positions)/3))
	for v := max(pj.hi, hi-windowSize); v < hi; v++ {
		pj.project(&pj.window[v%windowSize], v)
	}
	pj.hi = hi
	return &pj.window[i%windowSize]
}

// project fills e with vertex i's projection: vp.MulPoint, written out (the
// call copies the matrix). x, y and z of a vertex with w <= 1e-9 are not
// used.
func (pj *projector) project(e *projection, i int) {
	vp := &pj.vp
	pos := (*[3]float32)(pj.positions[3*i:])
	px, py, pz := float64(pos[0]), float64(pos[1]), float64(pos[2])
	x := vp[0]*px + vp[4]*py + vp[8]*pz + vp[12]
	y := vp[1]*px + vp[5]*py + vp[9]*pz + vp[13]
	w := vp[3]*px + vp[7]*py + vp[11]*pz + vp[15]
	e.x = (x/w + 1) * pj.halfW
	e.y = (1 - y/w) * pj.halfH
	e.z = (vp[2]*px + vp[6]*py + vp[10]*pz + vp[14]) / w
	e.w = w
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
	ix := (*[3]uint32)(sh.mesh.Indices[3*sh.t:])
	for v, i := range ix {
		sc := sh.mesh.Scalars[i]
		if s := math.Float32bits(sc); !sh.primed || s != sh.lastS {
			sh.lastS = s
			r, g, b := sh.cmap((float64(sc) - sh.lo) / sh.span)
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
			// All four tests are made and joined without a branch: which
			// way each goes cannot be predicted, and computing the rest
			// of the pixel costs less than a misprediction.
			w0 := ((x1-fx)*dy2 - (x2-fx)*dy1) * inv
			w1 := ((x2-fx)*dy0 - (x0-fx)*dy2) * inv
			w2 := 1 - w0 - w1
			z := float32(w0*sz[0] + w1*sz[1] + w2*sz[2])
			idx := row + px
			if b2i(w0 < 0)|b2i(w1 < 0)|b2i(w2 < 0)|b2i(z >= im.Depth[idx]) != 0 {
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

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
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
