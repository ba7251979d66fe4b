package render

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"colza/internal/collectives"
	"colza/internal/vtk"
)

func TestVecAndMatBasics(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if c := a.Cross(b); c != (Vec3{0, 0, 1}) {
		t.Fatalf("cross = %v", c)
	}
	if d := a.Dot(b); d != 0 {
		t.Fatalf("dot = %v", d)
	}
	if n := (Vec3{3, 4, 0}).Norm(); n != 5 {
		t.Fatalf("norm = %v", n)
	}
	if u := (Vec3{0, 0, 0}).Normalize(); u != (Vec3{}) {
		t.Fatalf("normalize zero = %v", u)
	}
	id := Identity()
	m := id.Mul(id)
	if m != id {
		t.Fatalf("I*I != I: %v", m)
	}
}

func TestLookAtMapsCenterToViewAxis(t *testing.T) {
	v := LookAt(Vec3{0, 0, 5}, Vec3{0, 0, 0}, Vec3{0, 1, 0})
	x, y, z, w := v.MulPoint(Vec3{0, 0, 0})
	if math.Abs(x) > 1e-12 || math.Abs(y) > 1e-12 || math.Abs(z+5) > 1e-12 || w != 1 {
		t.Fatalf("center maps to (%f %f %f %f), want (0,0,-5,1)", x, y, z, w)
	}
}

func TestPerspectiveDepthOrdering(t *testing.T) {
	cam := Camera{Eye: Vec3{0, 0, 10}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0}, FovY: 45, Near: 0.1, Far: 100}
	vp := cam.viewProjection(1)
	_, _, zn, wn := vp.MulPoint(Vec3{0, 0, 5}) // nearer
	_, _, zf, wf := vp.MulPoint(Vec3{0, 0, -5})
	if zn/wn >= zf/wf {
		t.Fatalf("near z %f should be smaller than far z %f", zn/wn, zf/wf)
	}
}

func TestImageEncodeDecodeRoundTrip(t *testing.T) {
	im := NewImage(8, 6)
	im.RGBA[0], im.RGBA[1] = 200, 100
	im.Depth[5] = 0.25
	dec, err := DecodeImage(im.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.W != 8 || dec.H != 6 || dec.RGBA[0] != 200 || dec.Depth[5] != 0.25 {
		t.Fatalf("round trip mismatch")
	}
	if !math.IsInf(float64(dec.Depth[0]), 1) {
		t.Fatal("background depth must stay +Inf")
	}
	if _, err := DecodeImage([]byte{1, 2}); err == nil {
		t.Fatal("short buffer should fail")
	}
}

func TestRasterizeTriangleCoversCenter(t *testing.T) {
	mesh := &vtk.TriangleMesh{}
	mesh.AddTriangle(
		[3]float32{-1, -1, 0}, [3]float32{1, -1, 0}, [3]float32{0, 1, 0}, 0.5, 0.5, 0.5)
	im := NewImage(64, 64)
	cam := Camera{Eye: Vec3{0, 0, 3}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0}, FovY: 60, Near: 0.1, Far: 10}
	RasterizeMesh(im, cam, mesh, CoolWarm, [2]float64{0, 1})
	if im.CoveredPixels() == 0 {
		t.Fatal("no pixels covered")
	}
	_, _, _, a := im.At(32, 36)
	if a != 255 {
		t.Fatal("center-ish pixel not opaque")
	}
}

func TestZBufferKeepsNearestTriangle(t *testing.T) {
	mesh := &vtk.TriangleMesh{}
	// Far triangle scalar 0 (cool/blue), near triangle scalar 1 (warm/red).
	mesh.AddTriangle([3]float32{-1, -1, -1}, [3]float32{1, -1, -1}, [3]float32{0, 1, -1}, 0, 0, 0)
	mesh.AddTriangle([3]float32{-1, -1, 1}, [3]float32{1, -1, 1}, [3]float32{0, 1, 1}, 1, 1, 1)
	im := NewImage(64, 64)
	cam := Camera{Eye: Vec3{0, 0, 5}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0}, FovY: 60, Near: 0.1, Far: 50}
	RasterizeMesh(im, cam, mesh, CoolWarm, [2]float64{0, 1})
	r, _, b, _ := im.At(32, 40)
	if r <= b {
		t.Fatalf("pixel (r=%d, b=%d): near warm triangle should win the z-test", r, b)
	}
}

func TestRasterizeBehindCameraCulled(t *testing.T) {
	mesh := &vtk.TriangleMesh{}
	mesh.AddTriangle([3]float32{-1, -1, 10}, [3]float32{1, -1, 10}, [3]float32{0, 1, 10}, 0, 0, 0)
	im := NewImage(32, 32)
	cam := Camera{Eye: Vec3{0, 0, 5}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0}, FovY: 60, Near: 0.1, Far: 50}
	RasterizeMesh(im, cam, mesh, CoolWarm, [2]float64{0, 1})
	if im.CoveredPixels() != 0 {
		t.Fatal("triangle behind the camera should not rasterize")
	}
}

func TestDefaultCameraSeesIsosurface(t *testing.T) {
	// End-to-end: build a field, extract a sphere, render it, and require
	// substantial coverage.
	img := vtk.NewImageData([3]int{20, 20, 20}, [3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	arr := img.AddPointArray("d", 1)
	for k := 0; k < 20; k++ {
		for j := 0; j < 20; j++ {
			for i := 0; i < 20; i++ {
				dx, dy, dz := float64(i)-9.5, float64(j)-9.5, float64(k)-9.5
				arr.Data[img.Index(i, j, k)] = float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
			}
		}
	}
	mesh, err := vtk.Isosurface(img, "d", 6)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := MeshBounds(mesh)
	cam := DefaultCamera(lo, hi)
	im := NewImage(128, 128)
	RasterizeMesh(im, cam, mesh, Viridis, [2]float64{0, 10})
	cov := float64(im.CoveredPixels()) / float64(128*128)
	if cov < 0.05 {
		t.Fatalf("coverage %.3f too low; camera framing broken", cov)
	}
}

// TestSplatVolumeSumsAndResolves: a splat adds integer terms, so any order
// and any split over accumulators give the same bytes; the resolve turns
// one colour into itself, a mix into its opacity-weighted mean, and leaves
// the depth plane as it was.
func TestSplatVolumeSumsAndResolves(t *testing.T) {
	tetra := func(dx float32, v float32) *vtk.UnstructuredGrid {
		g := vtk.NewUnstructuredGrid()
		p0 := g.AddPoint(dx-0.5, -0.5, -0.5)
		p1 := g.AddPoint(dx+0.5, -0.5, -0.5)
		p2 := g.AddPoint(dx, 0.5, -0.5)
		p3 := g.AddPoint(dx, 0, 0.5)
		g.AddCell(vtk.CellTetra, p0, p1, p2, p3)
		g.AddCellArray("vel", 1).Data[0] = v
		return g
	}
	g1, g2 := tetra(0, 5), tetra(0.05, 9)
	cam := Camera{Eye: Vec3{0, 0, 4}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0}, FovY: 45, Near: 0.1, Far: 50}
	opt := VolumeOptions{Field: "vel", ScalarRange: [2]float64{0, 10}, PointSize: 4}

	im := NewImage(64, 64)
	if err := SplatVolume(im, cam, g1, opt); err != nil {
		t.Fatal(err)
	}
	r, g, b := CoolWarm(0.5)
	covered := 0
	for i := 0; i < len(im.RGBA); i += 4 {
		if px := im.RGBA[i : i+4]; px[3] != 0 {
			covered++
			if px[0] != r || px[1] != g || px[2] != b {
				t.Fatalf("one splat resolves to %v, its colour is %v", px, [3]uint8{r, g, b})
			}
		}
	}
	if covered == 0 || im.CoveredPixels() != covered {
		t.Fatalf("%d pixels with alpha, %d covered: want some, and as many", covered, im.CoveredPixels())
	}
	for _, d := range im.Depth {
		if !math.IsInf(float64(d), 1) {
			t.Fatalf("the resolve wrote depth %v", d)
		}
	}

	sum := func(grids ...*vtk.UnstructuredGrid) []byte {
		acc := make([]byte, 32*64*64)
		for _, g := range grids {
			if err := AccumulateVolume(acc, 64, 64, cam, g, opt); err != nil {
				t.Fatal(err)
			}
		}
		return acc
	}
	both, split := sum(g1, g2), sum(g2)
	if !bytes.Equal(both, sum(g2, g1)) {
		t.Fatal("the accumulator depends on the order of the grids")
	}
	collectives.SumInt64(split, sum(g1))
	if !bytes.Equal(both, split) {
		t.Fatal("two accumulators summed differ from one that took both grids")
	}

	mix := make([]byte, 32*2)
	binary.LittleEndian.PutUint64(mix, 200*opacityOne/2+100*opacityOne/2)
	binary.LittleEndian.PutUint64(mix[24:], opacityOne)
	binary.LittleEndian.PutUint64(mix[32+24:], math.MaxUint64) // Σa = −1
	out := NewImage(2, 1)
	out.SetBackground(9, 9, 9)
	if err := ResolveVolume(out, mix); err != nil {
		t.Fatal(err)
	}
	if want := []uint8{150, 0, 0, 161, 0, 0, 0, 0}; !bytes.Equal(out.RGBA, want) {
		t.Fatalf("resolved %v, want %v", out.RGBA, want)
	}
}

// TestAccumulateVolumeDefaultsAndRefusals: unset options fall back to their
// defaults, cells behind the camera or off screen add nothing, and a
// malformed accumulator, an image of another size or an unknown field is
// refused.
func TestAccumulateVolumeDefaultsAndRefusals(t *testing.T) {
	g := vtk.NewUnstructuredGrid()
	for _, at := range [][2]float32{{0, 0}, {0, 10}, {100, 0}} { // in view, behind the eye, off to the side
		p := g.AddPoint(at[0], 0, at[1])
		g.AddCell(vtk.CellTriangle, p, p, p)
	}
	g.AddCellArray("vel", 1)
	cam := Camera{Eye: Vec3{0, 0, 4}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0}, FovY: 45, Near: 0.1, Far: 50}
	acc := make([]byte, 32*16*16)
	if err := AccumulateVolume(acc, 16, 16, cam, g, VolumeOptions{Field: "vel"}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for o := 0; o < len(acc); o += 32 {
		if binary.LittleEndian.Uint64(acc[o+24:]) != 0 {
			n++
		}
	}
	if n == 0 || n > 16 { // one splat of the default radius 1.5
		t.Fatalf("%d pixels reached, want the in-view cell's disc alone", n)
	}
	for name, err := range map[string]error{
		"short accumulator": AccumulateVolume(acc[:40], 16, 16, cam, g, VolumeOptions{Field: "vel"}),
		"no pixels":         AccumulateVolume(nil, 0, 0, cam, g, VolumeOptions{Field: "vel"}),
		"unknown field":     AccumulateVolume(acc, 16, 16, cam, g, VolumeOptions{Field: "missing"}),
		"image size":        ResolveVolume(NewImage(8, 8), acc),
		"short colour":      ResolveVolume(&Image{W: 16, H: 16}, acc),
	} {
		if err == nil || name != "unknown field" && !errors.Is(err, ErrImage) {
			t.Errorf("%s: got %v", name, err)
		}
	}
	if err := AccumulateVolume(acc[:1], 16, 16, cam, vtk.NewUnstructuredGrid(), VolumeOptions{}); err != nil {
		t.Errorf("an empty grid adds nothing, got %v", err)
	}
}

func TestGridBounds(t *testing.T) {
	g := vtk.NewUnstructuredGrid()
	g.AddPoint(-1, 2, 3)
	g.AddPoint(5, -7, 0)
	lo, hi := GridBounds(g)
	if lo != (Vec3{-1, -7, 0}) || hi != (Vec3{5, 2, 3}) {
		t.Fatalf("bounds = %v %v", lo, hi)
	}
	empty := vtk.NewUnstructuredGrid()
	lo, hi = GridBounds(empty)
	if lo != (Vec3{}) || hi != (Vec3{}) {
		t.Fatalf("empty bounds = %v %v", lo, hi)
	}
}

func TestColorMapsEndpoints(t *testing.T) {
	for _, cm := range []ColorMap{CoolWarm, Viridis} {
		r0, g0, b0 := cm(-5) // clamps
		r1, g1, b1 := cm(5)
		if r0 == r1 && g0 == g1 && b0 == b1 {
			t.Fatal("colormap endpoints identical")
		}
	}
	// CoolWarm: low is blue-ish, high is red-ish.
	r, _, b := CoolWarm(0)
	if b <= r {
		t.Fatalf("CoolWarm(0) = r%d b%d, want blue", r, b)
	}
	r, _, b = CoolWarm(1)
	if r <= b {
		t.Fatalf("CoolWarm(1) = r%d b%d, want red", r, b)
	}
}

func TestPNGEncodes(t *testing.T) {
	im := NewImage(16, 16)
	im.SetBackground(10, 20, 30)
	data, err := im.PNG()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 8 || data[1] != 'P' || data[2] != 'N' || data[3] != 'G' {
		t.Fatalf("not a png: % x", data[:8])
	}
}

// Property: framebuffer encode/decode round-trips arbitrary contents.
func TestQuickImageRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		im := NewImage(5, 4)
		s := uint64(seed)
		for i := range im.RGBA {
			s = s*6364136223846793005 + 1442695040888963407
			im.RGBA[i] = uint8(s >> 56)
		}
		for i := range im.Depth {
			s = s*6364136223846793005 + 1442695040888963407
			im.Depth[i] = float32(s%1000) / 1000
		}
		dec, err := DecodeImage(im.Encode())
		if err != nil {
			return false
		}
		for i := range im.RGBA {
			if dec.RGBA[i] != im.RGBA[i] {
				return false
			}
		}
		for i := range im.Depth {
			if dec.Depth[i] != im.Depth[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
