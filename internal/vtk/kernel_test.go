package vtk

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits compares two float32 slices by bit pattern (NaN payloads and
// the sign of zero included).
func sameBits(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func requireSameMesh(t *testing.T, what string, got, want *TriangleMesh) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want []float32
	}{
		{"Positions", got.Positions, want.Positions},
		{"Scalars", got.Scalars, want.Scalars},
	} {
		if i, ok := sameBits(f.got, f.want); !ok {
			t.Fatalf("%s: %s differ at %d (len %d, want %d)", what, f.name, i, len(f.got), len(f.want))
		}
	}
}

// randomGrid builds a grid with random dims (now and then one point thick
// along an axis, now and then large enough for a plane to leave many whole
// voxels on each side), origin and spacing (now and then NaN or ±Inf on an
// axis), and a field with smooth structure, noise, and a sprinkling of NaN
// and ±Inf samples.
func randomGrid(rng *rand.Rand) *ImageData {
	var dims [3]int
	for k := range dims {
		dims[k] = 2 + rng.Intn(7)
		if rng.Intn(4) == 0 {
			dims[k] = 10 + rng.Intn(10)
		}
	}
	if rng.Intn(6) == 0 {
		dims[rng.Intn(3)] = 1
	}
	origin := [3]float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
	spacing := [3]float64{0.1 + rng.Float64()*3, 0.1 + rng.Float64()*3, 0.1 + rng.Float64()*3}
	if rng.Intn(3) == 0 {
		origin, spacing = [3]float64{}, [3]float64{1, 1, 1}
	}
	if rng.Intn(8) == 0 {
		hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		if rng.Intn(2) == 0 {
			origin[rng.Intn(3)] = hostile
		} else {
			spacing[rng.Intn(3)] = hostile
		}
	}
	img := NewImageData(dims, origin, spacing)
	arr := img.AddPointArray("f", 1)
	for k := 0; k < dims[2]; k++ {
		for j := 0; j < dims[1]; j++ {
			for i := 0; i < dims[0]; i++ {
				v := math.Sin(float64(i)*0.9) + math.Cos(float64(j)*0.7) + 0.5*math.Sin(float64(k)*1.3) + 0.2*rng.NormFloat64()
				switch rng.Intn(40) {
				case 0:
					v = math.NaN()
				case 1:
					v = math.Inf(1)
				case 2:
					v = math.Inf(-1)
				case 3:
					v = 0.5 // sits exactly on an isovalue used below
				}
				arr.Data[img.Index(i, j, k)] = float32(v)
			}
		}
	}
	return img
}

// randomPlane draws a clip plane: axis-aligned through a grid point or
// between two, or arbitrary through the grid's interior, or missing the
// grid altogether.
func randomPlane(rng *rand.Rand, img *ImageData) Plane {
	at := img.Point(rng.Intn(img.Dims[0]), rng.Intn(img.Dims[1]), rng.Intn(img.Dims[2]))
	switch rng.Intn(5) {
	case 0, 4:
		axis := rng.Intn(3)
		var n [3]float32
		n[axis] = 1
		if rng.Intn(2) == 0 {
			n[axis] = -1
		}
		if rng.Intn(2) == 0 {
			at[axis] += img.Spacing[axis] / 2
		}
		return Plane{Normal: n, Offset: n[axis] * float32(at[axis])}
	case 1:
		return Plane{Normal: [3]float32{1, 0, 0}, Offset: 1e6}
	default:
		n := [3]float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
		off := n[0]*float32(at[0]) + n[1]*float32(at[1]) + n[2]*float32(at[2])
		return Plane{Normal: n, Offset: off}
	}
}

// TestKernelMatchesReference is the "same output" property: on random
// grids, isovalues and planes the one-pass kernel yields the parent's
// Isosurface and ClipMesh output bit for bit, triangle order included, and
// clipping while extracting equals extracting and then clipping.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	isoSets := [][]float64{
		{0.5}, {-0.3, 0.5, 1.1}, {-100}, {100}, {0}, {math.NaN()}, {math.Inf(1)}, {0.25, 0.25},
	}
	triangles := 0
	for trial := 0; trial < 400; trial++ {
		img := randomGrid(rng)
		isos := isoSets[rng.Intn(len(isoSets))]
		if rng.Intn(3) == 0 {
			isos = []float64{rng.NormFloat64()}
		}
		pl := randomPlane(rng, img)
		name := fmt.Sprintf("trial %d dims %v isos %v plane %+v", trial, img.Dims, isos, pl)

		want := &TriangleMesh{}
		for _, iso := range isos {
			ref, err := refIsosurface(img, "f", iso)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Isosurface(img, "f", iso)
			if err != nil {
				t.Fatal(err)
			}
			requireSameMesh(t, name+": Isosurface", got, ref)
			want.Append(ref)
		}
		triangles += want.NumTriangles()

		all := &TriangleMesh{}
		if err := ExtractIsosurfaces(all, img, "f", isos, nil); err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, name+": ExtractIsosurfaces", all, want)

		wantClipped := refClipMesh(want, pl)
		requireSameMesh(t, name+": ClipMesh", ClipMesh(all, pl), wantClipped)

		fused := &TriangleMesh{}
		if err := ExtractIsosurfaces(fused, img, "f", isos, &pl); err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, name+": fused clip", fused, wantClipped)
	}
	if triangles < 10000 {
		t.Fatalf("only %d reference triangles over all trials: the property was barely exercised", triangles)
	}
}

// TestFusedClipDropsKeptSideNaNTriangles: NaN samples on the kept side of
// the plane give triangles with NaN positions. The unclipped surface keeps
// them; clipTriangle drops those with NaN at every vertex and re-cuts those
// with NaN at one or two. So a voxel wholly on the kept side may not bypass
// the clip — only the discarded side is skipped.
func TestFusedClipDropsKeptSideNaNTriangles(t *testing.T) {
	img := NewImageData([3]int{10, 6, 6}, [3]float64{}, [3]float64{1, 1, 1})
	f := img.AddPointArray("f", 1)
	for k := 0; k < 6; k++ {
		for j := 0; j < 6; j++ {
			for i := 0; i < 10; i++ {
				v := float32(j%2) + 0.05*float32(i)
				if i >= 5 && (i+j+k)%4 == 0 {
					v = float32(math.NaN())
				}
				f.Data[img.Index(i, j, k)] = v
			}
		}
	}
	pl := Plane{Normal: [3]float32{1, 0, 0}, Offset: 2}
	// nanTriangles counts triangles with a NaN coordinate at every vertex.
	nanTriangles := func(m *TriangleMesh) int {
		n := 0
		for tri := 0; tri < m.NumTriangles(); tri++ {
			nanVertices := 0
			for v := 0; v < 3; v++ {
				p := m.Positions[9*tri+3*v:][:3]
				if p[0] != p[0] || p[1] != p[1] || p[2] != p[2] {
					nanVertices++
				}
			}
			if nanVertices == 3 {
				n++
			}
		}
		return n
	}

	all := &TriangleMesh{}
	if err := ExtractIsosurfaces(all, img, "f", []float64{0.5}, nil); err != nil {
		t.Fatal(err)
	}
	if nanTriangles(all) == 0 {
		t.Fatal("no NaN-position triangles in the unclipped surface: the test shows nothing")
	}
	fused := &TriangleMesh{}
	if err := ExtractIsosurfaces(fused, img, "f", []float64{0.5}, &pl); err != nil {
		t.Fatal(err)
	}
	ref, err := refIsosurface(img, "f", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	requireSameMesh(t, "fused clip", fused, refClipMesh(ref, pl))
	if fused.NumTriangles() == 0 || nanTriangles(fused) != 0 {
		t.Fatalf("fused clip kept %d triangles, %d with NaN positions", fused.NumTriangles(), nanTriangles(fused))
	}
}

// TestExtractAppendsAndReuses: the kernel appends after what out already
// holds, and refilling a Reset mesh reuses its storage.
func TestExtractAppendsAndReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b *ImageData
	for a == nil || b == nil || a.NumCells() == 0 || b.NumCells() == 0 {
		a, b = randomGrid(rng), randomGrid(rng)
	}
	ma, _ := refIsosurface(a, "f", 0.5)
	mb, _ := refIsosurface(b, "f", 0.5)
	want := &TriangleMesh{}
	want.Append(ma)
	want.Append(mb)

	out := &TriangleMesh{}
	for _, img := range []*ImageData{a, b} {
		if err := ExtractIsosurfaces(out, img, "f", []float64{0.5}, nil); err != nil {
			t.Fatal(err)
		}
	}
	requireSameMesh(t, "two blocks into one mesh", out, want)
	if out.NumTriangles() == 0 {
		t.Fatal("no triangles: the test shows nothing")
	}

	first := &out.Positions[0]
	out.Reset()
	if out.NumTriangles() != 0 || len(out.Scalars) != 0 {
		t.Fatal("Reset left data behind")
	}
	allocs := testing.AllocsPerRun(5, func() {
		out.Reset()
		for _, img := range []*ImageData{a, b} {
			if err := ExtractIsosurfaces(out, img, "f", []float64{0.5}, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	requireSameMesh(t, "refilled mesh", out, want)
	if &out.Positions[0] != first {
		t.Error("refilling a Reset mesh moved its storage")
	}
	if allocs != 0 {
		t.Errorf("refilling a Reset mesh allocated %.0f times", allocs)
	}
}

func TestReserve(t *testing.T) {
	m := &TriangleMesh{}
	m.AddTriangle([3]float32{0, 0, 0}, [3]float32{1, 0, 0}, [3]float32{0, 1, 0}, 1, 2, 3)
	m.Reserve(1000)
	if m.NumTriangles() != 1 || m.Scalars[2] != 3 {
		t.Fatal("Reserve changed the contents")
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			m.AddTriangle([3]float32{0, 0, 0}, [3]float32{1, 0, 0}, [3]float32{0, 1, 0}, 1, 2, 3)
		}
		m.Positions, m.Scalars = m.Positions[:9], m.Scalars[:3]
	})
	if allocs != 0 {
		t.Errorf("AddTriangle allocated %.0f times inside the reserved room", allocs)
	}
}

// addRandomTriangles adds the same n triangles to got (AddTriangle) and
// to want (refAddTriangle), and returns the normals refAddTriangle stored:
// mostly random, one in five degenerate (two vertices equal), and vertices
// at the origin, with NaN or ±Inf coordinates, or big enough for the cross
// product to overflow.
func addRandomTriangles(rng *rand.Rand, got, want *TriangleMesh, n int) [][3]float32 {
	pt := func() [3]float32 {
		switch rng.Intn(24) {
		case 0:
			return [3]float32{}
		case 1:
			return [3]float32{float32(math.NaN()), 1, 2}
		case 2:
			return [3]float32{float32(math.Inf(1)), 0, 0}
		case 3:
			return [3]float32{0, float32(math.Inf(-1)), 0}
		case 4:
			return [3]float32{3e38, -3e38, 1e-40}
		}
		return [3]float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
	}
	var normals [][3]float32
	for i := 0; i < n; i++ {
		a, b, c := pt(), pt(), pt()
		switch rng.Intn(10) {
		case 0:
			b = a
		case 1:
			c = b
		}
		s := float32(rng.NormFloat64())
		got.AddTriangle(a, b, c, s, s+1, s+2)
		normals = append(normals, refAddTriangle(want, a, b, c, s, s+1, s+2))
	}
	return normals
}

// TestAddTriangleMatchesReference covers AddTriangle on its own, degenerate
// and non-finite triangles included, and meshes whose two slices were
// handed in with unequal spare capacity.
func TestAddTriangleMatchesReference(t *testing.T) {
	got := &TriangleMesh{Positions: make([]float32, 0, 9), Scalars: make([]float32, 0, 40)}
	want := &TriangleMesh{}
	addRandomTriangles(rand.New(rand.NewSource(3)), got, want, 2000)
	requireSameMesh(t, "AddTriangle", got, want)
}

// TestFacetNormalMatchesReference: FacetNormal derives, bit for bit, the
// normal the parent's AddTriangle stored with each vertex — unit, zero
// (degenerate) and NaN ones alike.
func TestFacetNormalMatchesReference(t *testing.T) {
	got, want := &TriangleMesh{}, &TriangleMesh{}
	normals := addRandomTriangles(rand.New(rand.NewSource(4)), got, want, 3000)
	var unit, zero, nan int
	for tri, n := range normals {
		f := got.FacetNormal(tri)
		if i, ok := sameBits(f[:], n[:]); !ok {
			t.Fatalf("triangle %d: FacetNormal %v differs from the stored normal %v at %d", tri, f, n, i)
		}
		switch l := math.Sqrt(float64(n[0]*n[0] + n[1]*n[1] + n[2]*n[2])); {
		case l == 0:
			zero++
		case math.IsNaN(l):
			nan++
		case math.Abs(l-1) < 1e-5:
			unit++
		}
	}
	if unit < 1000 || zero < 100 || nan < 100 {
		t.Fatalf("%d unit, %d zero and %d NaN normals: the table shows little", unit, zero, nan)
	}
}

func TestIsosurfaceRefusesVectorArrays(t *testing.T) {
	img := NewImageData([3]int{4, 4, 4}, [3]float64{}, [3]float64{1, 1, 1})
	vel := img.AddPointArray("velocity", 3)
	for i := range vel.Data {
		vel.Data[i] = float32(i % 7)
	}
	_, err := Isosurface(img, "velocity", 3)
	var ns *NotScalarError
	if !errors.As(err, &ns) {
		t.Fatalf("got %v, want a *NotScalarError", err)
	}
	if ns.Array != "velocity" || ns.Components != 3 {
		t.Fatalf("error carries %+v", ns)
	}
	// The block survives an encode/decode round trip (it is well formed),
	// and is still refused.
	dec, err := DecodeImageData(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	out := &TriangleMesh{}
	if err := ExtractIsosurfaces(out, dec, "velocity", []float64{3}, nil); !errors.As(err, &ns) {
		t.Fatalf("decoded block: got %v, want a *NotScalarError", err)
	}
	if out.NumTriangles() != 0 {
		t.Fatal("triangles were emitted from a vector array")
	}
}

func TestIsosurfaceRefusesShortArray(t *testing.T) {
	img := NewImageData([3]int{3, 3, 3}, [3]float64{}, [3]float64{1, 1, 1})
	img.PointData = append(img.PointData, &DataArray{Name: "f", Components: 1, Data: make([]float32, 20)})
	if _, err := Isosurface(img, "f", 0.5); err == nil {
		t.Fatal("an array shorter than the grid was accepted")
	}
}
