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
		{"Normals", got.Normals, want.Normals},
		{"Scalars", got.Scalars, want.Scalars},
	} {
		if i, ok := sameBits(f.got, f.want); !ok {
			t.Fatalf("%s: %s differ at %d (len %d, want %d)", what, f.name, i, len(f.got), len(f.want))
		}
	}
}

// randomGrid builds a grid with random dims (now and then one point thick
// along an axis), origin and spacing, and a field with smooth structure,
// noise, and a sprinkling of NaN and ±Inf samples.
func randomGrid(rng *rand.Rand) *ImageData {
	var dims [3]int
	for k := range dims {
		dims[k] = 2 + rng.Intn(7)
	}
	if rng.Intn(6) == 0 {
		dims[rng.Intn(3)] = 1
	}
	origin := [3]float64{rng.NormFloat64() * 10, rng.NormFloat64() * 10, rng.NormFloat64() * 10}
	spacing := [3]float64{0.1 + rng.Float64()*3, 0.1 + rng.Float64()*3, 0.1 + rng.Float64()*3}
	if rng.Intn(3) == 0 {
		origin, spacing = [3]float64{}, [3]float64{1, 1, 1}
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

// randomPlane draws a clip plane: axis-aligned through a grid point, or
// arbitrary through the grid's interior, or missing the grid altogether.
func randomPlane(rng *rand.Rand, img *ImageData) Plane {
	at := img.Point(rng.Intn(img.Dims[0]), rng.Intn(img.Dims[1]), rng.Intn(img.Dims[2]))
	switch rng.Intn(4) {
	case 0:
		axis := rng.Intn(3)
		var n [3]float32
		n[axis] = 1
		if rng.Intn(2) == 0 {
			n[axis] = -1
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
	if out.NumTriangles() != 0 || len(out.Normals) != 0 || len(out.Scalars) != 0 {
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
		m.Positions, m.Normals, m.Scalars = m.Positions[:9], m.Normals[:9], m.Scalars[:3]
	})
	if allocs != 0 {
		t.Errorf("AddTriangle allocated %.0f times inside the reserved room", allocs)
	}
}

// TestAddTriangleMatchesReference covers AddTriangle on its own, degenerate
// and non-finite triangles included, and meshes whose three slices were
// handed in with unequal spare capacity.
func TestAddTriangleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	got := &TriangleMesh{Positions: make([]float32, 0, 9), Normals: make([]float32, 0, 90), Scalars: make([]float32, 0, 4)}
	want := &TriangleMesh{}
	pt := func() [3]float32 {
		switch rng.Intn(12) {
		case 0:
			return [3]float32{}
		case 1:
			return [3]float32{float32(math.NaN()), 1, 2}
		case 2:
			return [3]float32{float32(math.Inf(1)), 0, 0}
		}
		return [3]float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
	}
	for i := 0; i < 2000; i++ {
		a, b, c := pt(), pt(), pt()
		if rng.Intn(10) == 0 {
			b = a
		}
		s := float32(rng.NormFloat64())
		got.AddTriangle(a, b, c, s, s+1, s+2)
		refAddTriangle(want, a, b, c, s, s+1, s+2)
	}
	requireSameMesh(t, "AddTriangle", got, want)
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
