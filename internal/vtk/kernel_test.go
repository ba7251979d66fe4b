package vtk

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// soup expands m into what it draws: three positions and three scalars
// per triangle, in triangle order, however its vertices are shared. It
// fails on a mesh whose arrays disagree in length or whose indices name no
// vertex.
func soup(m *TriangleMesh) (positions, scalars []float32) {
	if len(m.Positions) != 3*len(m.Scalars) || len(m.Indices)%3 != 0 {
		panic(fmt.Sprintf("mesh of %d coordinates, %d scalars, %d indices", len(m.Positions), len(m.Scalars), len(m.Indices)))
	}
	for _, i := range m.Indices {
		if int(i) >= len(m.Scalars) {
			panic(fmt.Sprintf("index %d past %d vertices", i, len(m.Scalars)))
		}
		positions = append(positions, m.Positions[3*i:3*i+3]...)
		scalars = append(scalars, m.Scalars[i])
	}
	return positions, scalars
}

// requireSameMesh requires got to draw what want draws, bit for bit and in
// the same triangle order: their soups (soup) must be equal.
func requireSameMesh(t *testing.T, what string, got, want *TriangleMesh) {
	t.Helper()
	gotPos, gotScal := soup(got)
	wantPos, wantScal := soup(want)
	for _, f := range []struct {
		name      string
		got, want []float32
	}{
		{"Positions", gotPos, wantPos},
		{"Scalars", gotScal, wantScal},
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
// with NaN at one or two. So a voxel wholly on the kept side bypasses the
// clip only when it is tame (voxelClip.voxel), which these voxels are not.
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
		positions, _ := soup(m)
		for tri := 0; tri < m.NumTriangles(); tri++ {
			nanVertices := 0
			for v := 0; v < 3; v++ {
				p := positions[9*tri+3*v:][:3]
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

// TestEveryVoxelPatternMatchesReference: for each of the 256 below-iso
// patterns of a voxel's eight corners, voxelCases emits what marching its
// six tetrahedra gives, bit for bit, with and without a clip plane through
// the voxel — on random samples either side of the isovalue (one exactly
// on it now and then) and random spacing.
func TestEveryVoxelPatternMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(256))
	// Grid order of the voxel's corners (i + 2j + 4k) per corner number.
	at := [8]int{0, 1, 3, 2, 4, 5, 7, 6}
	for trial := 0; trial < 4; trial++ {
		for code := 0; code < 256; code++ {
			img := NewImageData([3]int{2, 2, 2}, [3]float64{rng.NormFloat64(), 0, 1}, [3]float64{0.5 + rng.Float64(), 1, 0.5 + rng.Float64()})
			f := img.AddPointArray("f", 1)
			for corner := 0; corner < 8; corner++ {
				v := 0.5 + 0.5*rng.Float32()
				if rng.Intn(8) == 0 {
					v = 0.5
				}
				if code>>corner&1 != 0 {
					v = 0.5 * rng.Float32()
				}
				f.Data[at[corner]] = v
			}
			ref, err := refIsosurface(img, "f", 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if (code != 0 && code != 0xFF) != (ref.NumTriangles() > 0) {
				t.Fatalf("pattern %#x: the reference emits %d triangles", code, ref.NumTriangles())
			}
			got := &TriangleMesh{}
			if err := ExtractIsosurfaces(got, img, "f", []float64{0.5}, nil); err != nil {
				t.Fatal(err)
			}
			requireSameMesh(t, fmt.Sprintf("pattern %#x", code), got, ref)
			pl := Plane{Normal: [3]float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}, Offset: float32(rng.NormFloat64())}
			got.Reset()
			if err := ExtractIsosurfaces(got, img, "f", []float64{0.5}, &pl); err != nil {
				t.Fatal(err)
			}
			requireSameMesh(t, fmt.Sprintf("pattern %#x clipped", code), got, refClipMesh(ref, pl))
		}
	}
}

// keptSideGrid is a 10×6×6 field crossing 0.5 between every two y rows,
// with plant(i, j, k) overriding samples where it returns ok; the plane
// x ≥ 2 leaves every voxel from i = 2 on wholly on its kept side.
func keptSideGrid(origin, spacing [3]float64, plant func(i, j, k int) (float32, bool)) *ImageData {
	img := NewImageData([3]int{10, 6, 6}, origin, spacing)
	f := img.AddPointArray("f", 1)
	for k := 0; k < 6; k++ {
		for j := 0; j < 6; j++ {
			for i := 0; i < 10; i++ {
				v := float32(j%2) + 0.05*float32(i)
				if p, ok := plant(i, j, k); ok {
					v = p
				}
				f.Data[img.Index(i, j, k)] = v
			}
		}
	}
	return img
}

// TestKeptSideSkipNeedsTameVoxels plants on voxels wholly on the kept side
// of the plane what would make a skipped clip differ from clipTriangle —
// NaN and ±Inf samples, samples near ±3e38 (iso − va and vb − va overflow,
// t is NaN), a y spacing of 3.6e38 that the plane's normal does not weigh
// (pb − pa overflows between adjacent corners): each gives the unclipped
// surface triangles with a non-finite coordinate, which the clip drops or
// re-cuts. The last cases are a tame grid, once under a normal whose terms
// pass the plane bound's scale cap (Eval is +Inf − Inf = NaN at vertices
// the bound puts on the kept side), once under an ordinary plane. The fused clip must equal
// extracting and then clipping, bit for bit, in each case.
func TestKeptSideSkipNeedsTameVoxels(t *testing.T) {
	unit := [3]float64{1, 1, 1}
	every4 := func(v float32) func(i, j, k int) (float32, bool) {
		return func(i, j, k int) (float32, bool) { return v, i >= 5 && (i+j+k)%4 == 0 }
	}
	huge := func(i, j, k int) (float32, bool) {
		if i < 5 {
			return 0, false
		}
		if (i+j+k)%2 == 0 {
			return -3e38, true
		}
		return 3e38, true
	}
	none := func(i, j, k int) (float32, bool) { return 0, false }
	nonFinite := func(m *TriangleMesh) int {
		n := 0
		positions, _ := soup(m)
		for tri := 0; tri < m.NumTriangles(); tri++ {
			for _, c := range positions[9*tri : 9*tri+9] {
				if math.IsNaN(float64(c)) || math.IsInf(float64(c), 0) {
					n++
					break
				}
			}
		}
		return n
	}
	xPlane := Plane{Normal: [3]float32{1, 0, 0}, Offset: 2}
	for _, c := range []struct {
		name    string
		img     *ImageData
		isos    []float64
		plane   Plane
		hostile bool
	}{
		{"NaN samples", keptSideGrid([3]float64{}, unit, every4(float32(math.NaN()))), []float64{0.5}, xPlane, true},
		{"+Inf samples", keptSideGrid([3]float64{}, unit, every4(float32(math.Inf(1)))), []float64{0.5}, xPlane, true},
		{"-Inf samples", keptSideGrid([3]float64{}, unit, every4(float32(math.Inf(-1)))), []float64{0.5}, xPlane, true},
		{"samples near ±3e38", keptSideGrid([3]float64{}, unit, huge), []float64{2e38, 0, -2e38, 0.5}, xPlane, true},
		{"y spacing 3.6e38", keptSideGrid([3]float64{0, -1.8e38, 0}, [3]float64{1, 3.6e38, 1}, none), []float64{0.5}, xPlane, true},
		{"normal (1e38, -1e38, 0)", keptSideGrid([3]float64{}, unit, none), []float64{0.5}, Plane{Normal: [3]float32{1e38, -1e38, 0}}, false},
		{"tame", keptSideGrid([3]float64{}, unit, none), []float64{0.5, 0.2}, xPlane, false},
	} {
		all, want := &TriangleMesh{}, &TriangleMesh{}
		for _, iso := range c.isos {
			ref, err := refIsosurface(c.img, "f", iso)
			if err != nil {
				t.Fatal(err)
			}
			all.Append(ref)
			want.Append(refClipMesh(ref, c.plane))
		}
		got := &TriangleMesh{}
		if err := ExtractIsosurfaces(got, c.img, "f", c.isos, &c.plane); err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, c.name, got, want)
		if bad := nonFinite(all); c.hostile && bad == 0 || !c.hostile && (bad != 0 || want.NumTriangles() == 0) {
			t.Fatalf("%s: %d unclipped triangles with a non-finite coordinate, %d kept: the case shows nothing", c.name, bad, want.NumTriangles())
		}
	}
}

// TestBenchmarkShapeTakesKeptSideSkip: on the benchmark's iso shape — 64³
// cut into 16 z-slabs, unit spacing, isovalues 0.1, 0.2, 0.3, clip x ≥ 32 —
// with a smooth field in the Gray-Scott range, crossing voxels take all
// three ways (discarded, kept whole, clipped), most of the kept side goes
// whole, and the fused output equals extracting and then clipping.
func TestBenchmarkShapeTakesKeptSideSkip(t *testing.T) {
	const n = 64
	isos := []float64{0.1, 0.2, 0.3}
	clip := Plane{Normal: [3]float32{1, 0, 0}, Offset: n / 2}
	var skipped, whole, clipped int
	for s := 0; s < 16; s++ {
		z0, z1 := 4*s, min(4*s+4, n-1)
		img := NewImageData([3]int{n, n, z1 - z0 + 1}, [3]float64{0, 0, float64(z0)}, [3]float64{1, 1, 1})
		f := img.AddPointArray("V", 1)
		for k := 0; k <= z1-z0; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					x, y, z := float64(i), float64(j), float64(z0+k)
					f.Data[img.Index(i, j, k)] = float32(0.25 + 0.2*math.Sin(0.31*x)*math.Cos(0.23*y)*math.Sin(0.17*z+0.4))
				}
			}
		}

		vc := voxelClip{clip: &clip}
		for _, iso := range isos {
			isoF := float32(iso)
			for k := 0; k < img.Dims[2]-1; k++ {
				for j := 0; j < n-1; j++ {
					vc.setRow(isoF, float32(j), float32(j+1), float32(z0+k), float32(z0+k+1))
					for i := 0; i < n-1; i++ {
						var val [8]float32
						for c, off := range [8][3]int{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1}} {
							val[c] = f.Data[img.Index(i+off[0], j+off[1], k+off[2])]
						}
						lo := belowMask(val[0], val[3], val[4], val[7], isoF)
						hi := belowMask(val[1], val[2], val[5], val[6], isoF)
						if lo|hi == 0 || lo&hi == 0xF {
							continue
						}
						switch pl, skip := vc.voxel(float32(i), float32(i+1), &val); {
						case skip:
							skipped++
						case pl == nil:
							whole++
						default:
							clipped++
						}
					}
				}
			}
		}

		want := &TriangleMesh{}
		for _, iso := range isos {
			ref, err := refIsosurface(img, "V", iso)
			if err != nil {
				t.Fatal(err)
			}
			want.Append(refClipMesh(ref, clip))
		}
		got := &TriangleMesh{}
		if err := ExtractIsosurfaces(got, img, "V", isos, &clip); err != nil {
			t.Fatal(err)
		}
		requireSameMesh(t, fmt.Sprintf("slab %d", s), got, want)
	}
	t.Logf("crossing voxels: %d discarded, %d kept whole, %d clipped", skipped, whole, clipped)
	if skipped == 0 || clipped == 0 || whole < 10*clipped {
		t.Fatalf("crossing voxels: %d discarded, %d kept whole, %d clipped", skipped, whole, clipped)
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
	if out.NumTriangles() != 0 || out.NumVertices() != 0 || len(out.Scalars) != 0 {
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
		m.Positions, m.Scalars, m.Indices = m.Positions[:9], m.Scalars[:3], m.Indices[:3]
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

// TestAppendOffsetsIndices: Append puts other's vertices after m's and
// shifts its indices by as many, so the result draws m's triangles and then
// other's; other is left as it was.
func TestAppendOffsetsIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b *ImageData
	for a == nil || b == nil || a.NumCells() == 0 || b.NumCells() == 0 {
		a, b = randomGrid(rng), randomGrid(rng)
	}
	ma, _ := Isosurface(a, "f", 0.5)
	mb, _ := Isosurface(b, "f", 0.5)
	if ma.NumTriangles() == 0 || mb.NumTriangles() == 0 || mb.NumVertices() == 3*mb.NumTriangles() {
		t.Fatalf("%d and %d triangles, %d vertices: the test shows nothing", ma.NumTriangles(), mb.NumTriangles(), mb.NumVertices())
	}
	wantPos, wantScal := soup(ma)
	bPos, bScal := soup(mb)
	bIndices := append([]uint32(nil), mb.Indices...)
	ma.Append(mb)
	gotPos, gotScal := soup(ma)
	if i, ok := sameBits(gotPos, append(wantPos, bPos...)); !ok {
		t.Fatalf("appended positions differ at %d", i)
	}
	if i, ok := sameBits(gotScal, append(wantScal, bScal...)); !ok {
		t.Fatalf("appended scalars differ at %d", i)
	}
	if !slices.Equal(mb.Indices, bIndices) {
		t.Fatal("Append changed the appended mesh's indices")
	}
}

// TestExtractSharesEachDirectedCrossing: on smooth grids, without a clip,
// the extraction holds one vertex per crossed directed lattice edge — more
// only where two crossings took the same crossing-table slot — and uses
// every vertex it holds. The directed edges are counted here from
// voxelCases and keyOf, by grid point rather than by slot.
func TestExtractSharesEachDirectedCrossing(t *testing.T) {
	type edge struct {
		point int
		code  uint8
	}
	for _, n := range []int{6, 17, 40} {
		img := sphereField([3]int{n, n, n - 1}, [3]float64{float64(n) / 2, float64(n) / 2.3, float64(n) / 2.1}, 1)
		isos := []float64{float64(n) / 5, float64(n) / 3}
		f, _ := img.PointArray("dist")
		off := cornerOffsets(n, n)
		crossed := 0
		for _, iso := range isos {
			seen := map[edge]bool{}
			for k := 0; k < n-2; k++ {
				for j := 0; j < n-1; j++ {
					for i := 0; i < n-1; i++ {
						p0 := img.Index(i, j, k)
						var lo, hi uint8
						for c, corner := range [8]uint8{0, 3, 4, 7, 1, 2, 5, 6} {
							if f.Data[p0+off[corner]] < float32(iso) {
								if c < 4 {
									lo |= 1 << c
								} else {
									hi |= 1 << (c - 4)
								}
							}
						}
						vc := &voxelCases[lo|hi<<4]
						for _, key := range vc.keys[:vc.nEdges] {
							seen[edge{p0 + off[key.lower], key.code}] = true
						}
					}
				}
			}
			crossed += len(seen)
		}
		m := &TriangleMesh{}
		if err := ExtractIsosurfaces(m, img, "dist", isos, nil); err != nil {
			t.Fatal(err)
		}
		used := make([]bool, m.NumVertices())
		for _, i := range m.Indices {
			used[i] = true
		}
		if i := slices.Index(used, false); i >= 0 {
			t.Fatalf("n=%d: vertex %d of %d is used by no triangle", n, i, len(used))
		}
		t.Logf("n=%d: %d triangles, %d vertices, %d crossed directed edges", n, m.NumTriangles(), m.NumVertices(), crossed)
		if v := m.NumVertices(); v < crossed || float64(v) > 1.05*float64(crossed) || 3*m.NumTriangles() < 2*v {
			t.Fatalf("n=%d: %d vertices for %d crossed directed edges and %d triangles", n, v, crossed, m.NumTriangles())
		}
	}
}

// TestResetLeavesNoStaleCrossings: a mesh that extracted one block, was
// Reset and extracts another block of the same dims (so the same edge
// keys) — or the same block at another isovalue, or the same block again
// after a different one — holds exactly what a fresh mesh extracting that
// block holds: no crossing-table entry outlives its block and isovalue.
// Without a Reset the second block's vertices and indices follow the first
// block's, as Append would place them.
func TestResetLeavesNoStaleCrossings(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := sphereField([3]int{12, 11, 10}, [3]float64{5, 5, 4}, 1)
	b := sphereField([3]int{12, 11, 10}, [3]float64{6, 4, 5}, 1)
	f := b.PointData[0].Data
	for i := range f {
		f[i] += 0.3 * float32(rng.NormFloat64())
	}
	fresh := func(img *ImageData, iso float64) *TriangleMesh {
		m := &TriangleMesh{}
		if err := ExtractIsosurfaces(m, img, "dist", []float64{iso}, nil); err != nil {
			t.Fatal(err)
		}
		return m
	}
	requireSameArrays := func(what string, got, want *TriangleMesh) {
		t.Helper()
		if i, ok := sameBits(got.Positions, want.Positions); !ok {
			t.Fatalf("%s: positions differ at %d", what, i)
		}
		if i, ok := sameBits(got.Scalars, want.Scalars); !ok {
			t.Fatalf("%s: scalars differ at %d", what, i)
		}
		if !slices.Equal(got.Indices, want.Indices) {
			t.Fatalf("%s: indices differ", what)
		}
	}
	m := &TriangleMesh{}
	for _, step := range []struct {
		img *ImageData
		iso float64
	}{{a, 3}, {b, 3}, {b, 3.5}, {a, 3}, {a, 3}} {
		m.Reset()
		if err := ExtractIsosurfaces(m, step.img, "dist", []float64{step.iso}, nil); err != nil {
			t.Fatal(err)
		}
		want := fresh(step.img, step.iso)
		if want.NumTriangles() == 0 {
			t.Fatal("no triangles: the test shows nothing")
		}
		requireSameArrays(fmt.Sprintf("iso %v after Reset", step.iso), m, want)
	}

	if err := ExtractIsosurfaces(m, b, "dist", []float64{3}, nil); err != nil {
		t.Fatal(err)
	}
	want := fresh(a, 3)
	want.Append(fresh(b, 3))
	requireSameArrays("a second block without Reset", m, want)
}

// TestHugePlaneBoundsTable: a block with a plane of 2^22 points and two of
// them extracts with a crossing table of a fixed size, not one sized by the
// plane (a staging peer picks the dims): the extraction allocates its
// table and the small surface's storage as it grows, less than one byte
// per point of the plane.
func TestHugePlaneBoundsTable(t *testing.T) {
	const n = 2048
	img := NewImageData([3]int{n, n, 2}, [3]float64{}, [3]float64{1, 1, 1})
	f := img.AddPointArray("f", 1)
	for j := 0; j < n; j += 97 {
		for i := 0; i < n; i += 89 {
			f.Data[img.Index(i, j, 1)] = 1
		}
	}
	m := &TriangleMesh{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := ExtractIsosurfaces(m, img, "f", []float64{0.5, 0.25}, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	surface := uint64(4*cap(m.Positions) + 4*cap(m.Scalars) + 4*cap(m.Indices))
	t.Logf("%d triangles, %d vertices: %d B allocated, %d B of them the surface", m.NumTriangles(), m.NumVertices(), alloc, surface)
	if m.NumTriangles() < 1000 {
		t.Fatalf("%d triangles: the test shows nothing", m.NumTriangles())
	}
	if alloc >= n*n {
		t.Fatalf("the extraction allocated %d B for a plane of %d points", alloc, n*n)
	}
}

// TestBoundsMatchSoup: an indexed surface's Bounds equal, bit for bit, the
// bounds of the soup it draws, on grids where both zeros meet at the box's
// faces: a −0 origin with negative spacing (coordinates −0, −s, …) and
// crossings that land on +0, with and without clip planes through 0. The
// fold keeps whichever zero it meets first, and a vertex comes first where
// the soup first draws it.
func TestBoundsMatchSoup(t *testing.T) {
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(13))
	var zeroFaces int
	for trial := 0; trial < 40; trial++ {
		origin := [3]float64{negZero, negZero, negZero}
		spacing := [3]float64{-1, -0.5, -2}
		for k := range spacing {
			if rng.Intn(3) == 0 {
				origin[k], spacing[k] = -3*spacing[k], -spacing[k]
			}
		}
		img := NewImageData([3]int{4 + rng.Intn(5), 4 + rng.Intn(5), 4 + rng.Intn(5)}, origin, spacing)
		f := img.AddPointArray("f", 1)
		for i := range f.Data {
			f.Data[i] = float32(rng.Intn(3)) * 0.5 // crossings at t = 0, 1/2 and 1
		}
		var clip *Plane
		switch rng.Intn(3) {
		case 1:
			clip = &Plane{Normal: [3]float32{1, 0, 0}}
		case 2:
			clip = &Plane{Normal: [3]float32{0, -1, 1}}
		}
		m := &TriangleMesh{}
		if err := ExtractIsosurfaces(m, img, "f", []float64{0.5, 0.25}, clip); err != nil {
			t.Fatal(err)
		}
		positions, _ := soup(m)
		glo, ghi := m.Bounds()
		wlo, whi := EmptyBounds()
		wlo, whi = FoldBounds(wlo, whi, positions)
		if len(positions) == 0 {
			wlo, whi = [3]float32{}, [3]float32{}
		}
		if i, ok := sameBits(append(glo[:], ghi[:]...), append(wlo[:], whi[:]...)); !ok {
			t.Fatalf("trial %d: Bounds %v–%v, the soup's %v–%v (differ at %d)", trial, glo, ghi, wlo, whi, i)
		}
		for k := 0; k < 3; k++ {
			for _, face := range []float32{wlo[k], whi[k]} {
				if face != 0 {
					continue
				}
				var pos, neg bool
				for v := k; v < len(positions); v += 3 {
					if positions[v] == 0 {
						pos, neg = pos || !math.Signbit(float64(positions[v])), neg || math.Signbit(float64(positions[v]))
					}
				}
				if pos && neg {
					zeroFaces++
				}
			}
		}
	}
	if zeroFaces < 20 {
		t.Fatalf("only %d box faces at a zero that the soup holds with both signs: the test shows little", zeroFaces)
	}
}

// TestCrossingGenerationWrapClearsTable: when the crossing table's
// generation counter wraps, its slots are cleared, so the entries written
// under the generation that number last named (here: the first block's,
// generation 1) cannot pass for the next block's.
func TestCrossingGenerationWrapClearsTable(t *testing.T) {
	a := sphereField([3]int{12, 11, 10}, [3]float64{5, 5, 4}, 1)
	b := sphereField([3]int{12, 11, 10}, [3]float64{6, 4, 5}, 1)
	m := &TriangleMesh{}
	if err := ExtractIsosurfaces(m, a, "dist", []float64{3}, nil); err != nil {
		t.Fatal(err)
	}
	if m.crossings.gen != 1 {
		t.Fatalf("the first block was extracted under generation %d", m.crossings.gen)
	}
	m.crossings.gen = math.MaxUint32
	m.Reset()
	if err := ExtractIsosurfaces(m, b, "dist", []float64{3}, nil); err != nil {
		t.Fatal(err)
	}
	if m.crossings.gen != 1 {
		t.Fatalf("after the wrap the generation is %d", m.crossings.gen)
	}
	want := &TriangleMesh{}
	if err := ExtractIsosurfaces(want, b, "dist", []float64{3}, nil); err != nil {
		t.Fatal(err)
	}
	if i, ok := sameBits(m.Positions, want.Positions); !ok || !slices.Equal(m.Indices, want.Indices) {
		t.Fatalf("after the wrap the surface differs from a fresh one (positions at %d)", i)
	}
}

// TestKeyOfRefusesMixedSteps: an edge that steps down along one axis and up
// along another is no lattice edge of the split, and keyOf says so rather
// than key it.
func TestKeyOfRefusesMixedSteps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("keyOf keyed the edge from corner 1 to corner 3")
		}
	}()
	keyOf(1, 3)
}
