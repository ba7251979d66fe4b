package render

import (
	"math"
	"testing"
	"testing/quick"

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

func TestSplatVolumeBlendsAndRecordsDepth(t *testing.T) {
	g := vtk.NewUnstructuredGrid()
	p0 := g.AddPoint(-0.5, -0.5, -0.5)
	p1 := g.AddPoint(0.5, -0.5, -0.5)
	p2 := g.AddPoint(0, 0.5, -0.5)
	p3 := g.AddPoint(0, 0, 0.5)
	g.AddCell(vtk.CellTetra, p0, p1, p2, p3)
	arr := g.AddCellArray("vel", 1)
	arr.Data[0] = 5

	im := NewImage(64, 64)
	im.SetBackground(0, 0, 0)
	cam := Camera{Eye: Vec3{0, 0, 4}, LookAt: Vec3{0, 0, 0}, Up: Vec3{0, 1, 0}, FovY: 45, Near: 0.1, Far: 50}
	err := SplatVolume(im, cam, g, VolumeOptions{
		Field: "vel", ScalarRange: [2]float64{0, 10}, PointSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if im.CoveredPixels() == 0 {
		t.Fatal("splat left no depth footprint")
	}
	sum := 0
	for i := 0; i < len(im.RGBA); i += 4 {
		sum += int(im.RGBA[i]) + int(im.RGBA[i+1]) + int(im.RGBA[i+2])
	}
	if sum == 0 {
		t.Fatal("splat left no color")
	}
	if err := SplatVolume(im, cam, g, VolumeOptions{Field: "missing"}); err == nil {
		t.Fatal("unknown field should fail")
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
