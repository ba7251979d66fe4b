package render

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"testing"

	"colza/internal/sim"
	"colza/internal/vtk"
)

// The rasterizer as it stood at commit eb8b19a, kept as the reference the
// current one is compared against pixel for pixel. It reads the facet
// normal AddTriangle then stored with each vertex; refFacetNormal derives
// it the same way.

// refFacetNormal is the normal eb8b19a's AddTriangle stored for the
// triangle p0 p1 p2.
func refFacetNormal(p0, p1, p2 Vec3) Vec3 {
	ux, uy, uz := float32(p1[0])-float32(p0[0]), float32(p1[1])-float32(p0[1]), float32(p1[2])-float32(p0[2])
	vx, vy, vz := float32(p2[0])-float32(p0[0]), float32(p2[1])-float32(p0[1]), float32(p2[2])-float32(p0[2])
	nx, ny, nz := uy*vz-uz*vy, uz*vx-ux*vz, ux*vy-uy*vx
	l := float32(math.Sqrt(float64(nx*nx + ny*ny + nz*nz)))
	if l > 0 {
		nx, ny, nz = nx/l, ny/l, nz/l
	}
	return Vec3{float64(nx), float64(ny), float64(nz)}
}

func refRasterizeMesh(im *Image, cam Camera, mesh *vtk.TriangleMesh, cmap ColorMap, scalarRange [2]float64) {
	if mesh.NumTriangles() == 0 {
		return
	}
	vp := cam.viewProjection(float64(im.W) / float64(im.H))
	lightDir := cam.LookAt.Sub(cam.Eye).Normalize().Scale(-1)
	span := scalarRange[1] - scalarRange[0]
	if span == 0 {
		span = 1
	}
	nt := mesh.NumTriangles()
	var sx, sy, sz [3]float64
	var colR, colG, colB [3]float64
	for t := 0; t < nt; t++ {
		var p [3]Vec3
		for v := range p {
			base := 9*t + 3*v
			p[v] = Vec3{float64(mesh.Positions[base]), float64(mesh.Positions[base+1]), float64(mesh.Positions[base+2])}
		}
		n := refFacetNormal(p[0], p[1], p[2])
		visible := true
		for v := 0; v < 3; v++ {
			x, y, z, w := vp.MulPoint(p[v])
			if w <= 1e-9 {
				visible = false
				break
			}
			sx[v] = (x/w + 1) * 0.5 * float64(im.W)
			sy[v] = (1 - y/w) * 0.5 * float64(im.H)
			sz[v] = z / w

			diff := math.Abs(n.Dot(lightDir))
			shade := 0.25 + 0.75*diff
			sc := (float64(mesh.Scalars[3*t+v]) - scalarRange[0]) / span
			r, g, b := cmap(sc)
			colR[v] = float64(r) * shade
			colG[v] = float64(g) * shade
			colB[v] = float64(b) * shade
		}
		if !visible {
			continue
		}
		refFillTriangle(im, sx, sy, sz, colR, colG, colB)
	}
}

func refFillTriangle(im *Image, sx, sy, sz [3]float64, cr, cg, cb [3]float64) {
	minX := int(math.Floor(math.Min(sx[0], math.Min(sx[1], sx[2]))))
	maxX := int(math.Ceil(math.Max(sx[0], math.Max(sx[1], sx[2]))))
	minY := int(math.Floor(math.Min(sy[0], math.Min(sy[1], sy[2]))))
	maxY := int(math.Ceil(math.Max(sy[0], math.Max(sy[1], sy[2]))))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX >= im.W {
		maxX = im.W - 1
	}
	if maxY >= im.H {
		maxY = im.H - 1
	}
	if minX > maxX || minY > maxY {
		return
	}
	x0, y0, x1, y1, x2, y2 := sx[0], sy[0], sx[1], sy[1], sx[2], sy[2]
	area := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
	if math.Abs(area) < 1e-12 {
		return
	}
	inv := 1 / area
	for py := minY; py <= maxY; py++ {
		fy := float64(py) + 0.5
		for px := minX; px <= maxX; px++ {
			fx := float64(px) + 0.5
			w0 := ((x1-fx)*(y2-fy) - (x2-fx)*(y1-fy)) * inv
			w1 := ((x2-fx)*(y0-fy) - (x0-fx)*(y2-fy)) * inv
			w2 := 1 - w0 - w1
			if w0 < 0 || w1 < 0 || w2 < 0 {
				continue
			}
			z := float32(w0*sz[0] + w1*sz[1] + w2*sz[2])
			idx := py*im.W + px
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

// requirePNGPixels decodes a PNG and requires its pixels, as
// non-premultiplied RGBA, to equal im's colour plane.
func requirePNGPixels(t *testing.T, what string, data []byte, im *Image) {
	t.Helper()
	dec, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if b := dec.Bounds(); b != image.Rect(0, 0, im.W, im.H) {
		t.Fatalf("%s: PNG bounds %v, want %dx%d", what, b, im.W, im.H)
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b, a := im.At(x, y)
			if got := color.NRGBAModel.Convert(dec.At(x, y)); got != (color.NRGBA{R: r, G: g, B: b, A: a}) {
				t.Fatalf("%s: pixel (%d, %d) decodes to %v, the plane holds %v", what, x, y, got, [4]uint8{r, g, b, a})
			}
		}
	}
}

// randomSoup builds a triangle soup around the origin: mostly small
// triangles with few distinct scalars (what an isosurface looks like), plus
// the awkward ones — large, degenerate, behind the camera, far off screen,
// with per-vertex scalars, NaN and Inf. NaN scalars are optional: Viridis
// indexes its table with them.
func randomSoup(rng *rand.Rand, n int, nanScalars bool) *vtk.TriangleMesh {
	m := &vtk.TriangleMesh{}
	levels := []float32{0.1, 0.2, 0.3}
	pt := func(c [3]float32, r float64) [3]float32 {
		return [3]float32{
			c[0] + float32(rng.NormFloat64()*r),
			c[1] + float32(rng.NormFloat64()*r),
			c[2] + float32(rng.NormFloat64()*r),
		}
	}
	for i := 0; i < n; i++ {
		c := pt([3]float32{}, 3)
		r := 0.2
		switch rng.Intn(25) {
		case 0:
			r = 4 // large
		case 1:
			c = pt([3]float32{0, 0, 40}, 1) // behind the eye
		case 2:
			c = pt([3]float32{60, 0, 0}, 1) // off screen
		}
		a, b, d := pt(c, r), pt(c, r), pt(c, r)
		s := levels[rng.Intn(len(levels))]
		switch rng.Intn(30) {
		case 0:
			b = a // degenerate
		case 1:
			d[0] = float32(math.NaN())
		case 2:
			a[1] = float32(math.Inf(1))
		}
		m.AddTriangle(a, b, d, s, s, s)
		if rng.Intn(10) == 0 {
			sb := len(m.Scalars) - 3
			m.Scalars[sb+1], m.Scalars[sb+2] = float32(rng.Float64()), float32(rng.Float64())
			if nanScalars {
				m.Scalars[sb+2] = float32(math.NaN())
			}
		}
	}
	return m
}

func requireSameImage(t *testing.T, what string, got, want *Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: size %dx%d, want %dx%d", what, got.W, got.H, want.W, want.H)
	}
	if !bytes.Equal(got.RGBA, want.RGBA) {
		t.Fatalf("%s: colour planes differ", what)
	}
	for i := range got.Depth {
		if math.Float32bits(got.Depth[i]) != math.Float32bits(want.Depth[i]) {
			t.Fatalf("%s: depth differs at pixel %d: %v, want %v", what, i, got.Depth[i], want.Depth[i])
		}
	}
}

// TestRasterizeMatchesReference: same pixels and same depths as the
// parent's rasterizer, on random soups, cameras, image shapes and both
// colormaps.
func TestRasterizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	covered := 0
	for trial := 0; trial < 60; trial++ {
		mesh := randomSoup(rng, 400, trial%2 == 0)
		w, h := 16+rng.Intn(80), 16+rng.Intn(80)
		var cam Camera
		switch trial % 3 {
		case 0:
			lo, hi := MeshBounds(mesh)
			cam = DefaultCamera(lo, hi)
		case 1:
			cam = Camera{Eye: Vec3{0, 0, 12}, LookAt: Vec3{}, Up: Vec3{0, 1, 0}, FovY: 50, Near: 0.1, Far: 100}
		default:
			// Inside the soup: many vertices at or behind the eye plane.
			cam = Camera{Eye: Vec3{0.5, 0.2, 1}, LookAt: Vec3{-1, 0, -2}, Up: Vec3{0, 1, 0}, FovY: 70, Near: 0.01, Far: 50}
		}
		cmap, srange := ColorMap(CoolWarm), [2]float64{0, 0.5}
		if trial%2 == 1 {
			cmap, srange = Viridis, [2]float64{0.3, 0.3}
		}
		got, want := NewImage(w, h), NewImage(w, h)
		RasterizeMesh(got, cam, mesh, cmap, srange)
		refRasterizeMesh(want, cam, mesh, cmap, srange)
		requireSameImage(t, "random soup", got, want)
		covered += want.CoveredPixels()

		gotPNG, err := got.PNG()
		if err != nil {
			t.Fatal(err)
		}
		requirePNGPixels(t, fmt.Sprintf("trial %d", trial), gotPNG, want)
	}
	if covered < 20000 {
		t.Fatalf("only %d pixels covered over all trials: the comparison shows little", covered)
	}
}

// fillAfterProjection runs what RasterizeMesh does with a projected
// triangle: the area cut, coveredBox, fillTriangle. It returns the box.
func fillAfterProjection(im *Image, sx, sy, sz, cr, cg, cb *[3]float64) pixelBox {
	area := (sx[1]-sx[0])*(sy[2]-sy[0]) - (sx[2]-sx[0])*(sy[1]-sy[0])
	if math.Abs(area) < 1e-12 {
		return pixelBox{}
	}
	box, ok := coveredBox(im, sx, sy, area)
	if ok {
		fillTriangle(im, box, 1/area, sx, sy, sz, &triShader{ready: true, r: *cr, g: *cg, b: *cb})
	}
	return box
}

// TestFillTriangleSliversMatchReference holds the pixel-centre box to the
// parent's floor/ceil scan on triangles built to sit on its edges: vertices
// 1e-15 to 1e-3 px (and about δ) from pixel centres, and near-collinear
// slivers whose area runs from just above the 1e-12 cut upwards, some lying
// along a row, column or diagonal of pixel centres. Each is filled into a
// fresh frame on both sides, well inside it so that no box is clamped; both
// sides of coveredBox's guard must be taken.
func TestFillTriangleSliversMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const size = 16
	off := func() float64 {
		e := math.Pow(10, -15+12*rng.Float64())
		switch rng.Intn(6) {
		case 0:
			e = 0
		case 1:
			e = centreSlack * (0.5 + rng.Float64())
		}
		if rng.Intn(2) == 0 {
			e = -e
		}
		return e
	}
	centre := func(base, spread int) float64 { return float64(base+rng.Intn(spread)) + 0.5 + off() }
	var narrowed, wide, covered int
	for n := 0; n < 6000; n++ {
		var sx, sy, sz, cr, cg, cb [3]float64
		bx, by := 5+rng.Intn(5), 5+rng.Intn(5)
		for v := range sx {
			sx[v], sy[v] = centre(bx, 4), centre(by, 4)
			sz[v] = rng.Float64()*2 - 1
			cr[v], cg[v], cb[v] = rng.Float64()*300, rng.Float64()*300, rng.Float64()*300
		}
		if n%3 == 2 {
			// The second vertex 2-5 centres from the first along a row,
			// column or diagonal.
			k, dir := 2+rng.Intn(4), [4][2]int{{1, 0}, {0, 1}, {1, 1}, {1, -1}}[rng.Intn(4)]
			sx[1], sy[1] = centre(int(sx[0])+k*dir[0], 1), centre(int(sy[0])+k*dir[1], 1)
		}
		if n%3 != 0 {
			// A sliver: the third vertex pushed off the line through the
			// first two by a height that sets the area.
			dx, dy := sx[1]-sx[0], sy[1]-sy[0]
			l := math.Hypot(dx, dy)
			if l == 0 {
				dx, dy, l = 1, 0, 1
			}
			s, h := rng.Float64()*1.4-0.2, 1e-12*math.Pow(10, 6*rng.Float64())/l
			sx[2] = sx[0] + s*dx - h*dy/l
			sy[2] = sy[0] + s*dy + h*dx/l
		}
		got, want := NewImage(size, size), NewImage(size, size)
		box := fillAfterProjection(got, &sx, &sy, &sz, &cr, &cg, &cb)
		refFillTriangle(want, sx, sy, sz, cr, cg, cb)
		requireSameImage(t, fmt.Sprintf("triangle %d (%v, %v)", n, sx, sy), got, want)
		covered += want.CoveredPixels()
		switch {
		case box == pixelBox{}:
		case box.maxX < int(math.Ceil(max(sx[0], sx[1], sx[2]))):
			narrowed++
		default:
			wide++
		}
	}
	if narrowed < 1000 || wide < 100 || covered < 2000 {
		t.Fatalf("pixel-centre box taken %d times, floor/ceil box %d times, %d pixels covered: the table shows little", narrowed, wide, covered)
	}
}

// grayScottSlabs is the benchmark's iso input at seed 1: a 64^3 Gray-Scott
// state after 200 steps, cut into 16 z-slabs that share their boundary
// planes, each extracted at three levels and clipped at x = 32.
func grayScottSlabs(t *testing.T) []*vtk.TriangleMesh {
	t.Helper()
	p := sim.DefaultGrayScott()
	p.Seed = 1
	gs := sim.NewGrayScott(nil, [3]int{64, 64, 64}, p)
	if err := gs.Step(200); err != nil {
		t.Fatal(err)
	}
	full, err := gs.Block().PointArray("V")
	if err != nil {
		t.Fatal(err)
	}
	clip := &vtk.Plane{Normal: [3]float32{1, 0, 0}, Offset: 32}
	var out []*vtk.TriangleMesh
	for s := 0; s < 16; s++ {
		z0, z1 := 4*s, min(4*s+4, 63)
		slab := vtk.NewImageData([3]int{64, 64, z1 - z0 + 1}, [3]float64{0, 0, float64(z0)}, [3]float64{1, 1, 1})
		copy(slab.AddPointArray("V", 1).Data, full.Data[z0*64*64:(z1+1)*64*64])
		mesh := &vtk.TriangleMesh{}
		if err := vtk.ExtractIsosurfaces(mesh, slab, "V", []float64{0.1, 0.2, 0.3}, clip); err != nil {
			t.Fatal(err)
		}
		out = append(out, mesh)
	}
	return out
}

// TestRasterizeBenchmarkFramesMatchReference renders the benchmark's frames
// against the parent's rasterizer at 256x256 in coolwarm: the full surface
// and each rank's half (slabs by block-id parity, the client's default
// placement), all framed by the full surface's bounds as the pipeline's
// global camera is.
func TestRasterizeBenchmarkFramesMatchReference(t *testing.T) {
	slabs := grayScottSlabs(t)
	var full vtk.TriangleMesh
	var halves [2]vtk.TriangleMesh
	for s, m := range slabs {
		full.Append(m)
		halves[s%2].Append(m)
	}
	if n := full.NumTriangles(); n != 134221 {
		t.Fatalf("%d triangles, want the benchmark's 134221 at seed 1", n)
	}
	cam := DefaultCamera(MeshBounds(&full))
	for name, m := range map[string]*vtk.TriangleMesh{"full": &full, "rank 0": &halves[0], "rank 1": &halves[1]} {
		got, want := NewImage(256, 256), NewImage(256, 256)
		RasterizeMesh(got, cam, m, CoolWarm, [2]float64{0, 0.5})
		refRasterizeMesh(want, cam, m, CoolWarm, [2]float64{0, 0.5})
		requireSameImage(t, name, got, want)
		if want.CoveredPixels() < 5000 {
			t.Fatalf("%s: only %d pixels covered", name, want.CoveredPixels())
		}
	}
}

// TestPNGMatchesReference covers the encoder on its own: transparent,
// opaque and mixed-alpha planes, encoded back to back so the recycled
// encoder state is exercised, each decoding to the plane's pixels.
func TestPNGMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		im := NewImage(1+rng.Intn(70), 1+rng.Intn(70))
		switch trial % 3 {
		case 1:
			im.SetBackground(10, 20, 30)
		case 2:
			rng.Read(im.RGBA)
		}
		got, err := im.PNG()
		if err != nil {
			t.Fatal(err)
		}
		requirePNGPixels(t, fmt.Sprintf("trial %d (%dx%d)", trial, im.W, im.H), got, im)
	}
}
