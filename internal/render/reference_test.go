package render

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"testing"

	"colza/internal/vtk"
)

// The rasterizer and the PNG path as they stood at commit eb8b19a, kept as
// the references the current ones are compared against, pixel for pixel
// and byte for byte.

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
		visible := true
		for v := 0; v < 3; v++ {
			base := 9*t + 3*v
			p := Vec3{
				float64(mesh.Positions[base]),
				float64(mesh.Positions[base+1]),
				float64(mesh.Positions[base+2]),
			}
			x, y, z, w := vp.MulPoint(p)
			if w <= 1e-9 {
				visible = false
				break
			}
			sx[v] = (x/w + 1) * 0.5 * float64(im.W)
			sy[v] = (1 - y/w) * 0.5 * float64(im.H)
			sz[v] = z / w

			n := Vec3{
				float64(mesh.Normals[base]),
				float64(mesh.Normals[base+1]),
				float64(mesh.Normals[base+2]),
			}
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

func refPNG(im *Image) ([]byte, error) {
	out := image.NewNRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b, a := im.At(x, y)
			out.SetNRGBA(x, y, color.NRGBA{R: r, G: g, B: b, A: a})
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, out); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// randomSoup builds a triangle soup around the origin: mostly small
// triangles with facet normals and few distinct scalars (what an isosurface
// looks like), plus the awkward ones — large, degenerate, behind the
// camera, far off screen, with per-vertex normals and scalars, NaN and Inf.
// NaN scalars are optional: Viridis indexes its table with them.
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
			// Per-vertex normals and scalars, as a decoded mesh may carry.
			base := len(m.Normals) - 9
			for k := 0; k < 9; k++ {
				m.Normals[base+k] = float32(rng.NormFloat64())
			}
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
		wantPNG, err := refPNG(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotPNG, wantPNG) {
			t.Fatalf("trial %d: PNG bytes differ (%d vs %d)", trial, len(gotPNG), len(wantPNG))
		}
	}
	if covered < 20000 {
		t.Fatalf("only %d pixels covered over all trials: the comparison shows little", covered)
	}
}

// TestPNGMatchesReference covers the encoder on its own: transparent,
// opaque and mixed-alpha planes, encoded back to back so the recycled
// encoder state is exercised.
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
		want, err := refPNG(im)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%dx%d): PNG bytes differ", trial, im.W, im.H)
		}
		if _, err := png.Decode(bytes.NewReader(got)); err != nil {
			t.Fatal(err)
		}
	}
}
