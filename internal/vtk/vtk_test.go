package vtk

import (
	"math"
	"testing"

	"colza/internal/minimpi"
)

func sphereField(dims [3]int, center [3]float64, spacing float64) *ImageData {
	img := NewImageData(dims, [3]float64{0, 0, 0}, [3]float64{spacing, spacing, spacing})
	arr := img.AddPointArray("dist", 1)
	for k := 0; k < dims[2]; k++ {
		for j := 0; j < dims[1]; j++ {
			for i := 0; i < dims[0]; i++ {
				p := img.Point(i, j, k)
				dx, dy, dz := p[0]-center[0], p[1]-center[1], p[2]-center[2]
				arr.Data[img.Index(i, j, k)] = float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
			}
		}
	}
	return img
}

func TestImageDataBasics(t *testing.T) {
	img := NewImageData([3]int{4, 5, 6}, [3]float64{1, 2, 3}, [3]float64{0.5, 0.5, 0.5})
	if img.NumPoints() != 120 {
		t.Fatalf("NumPoints = %d", img.NumPoints())
	}
	if img.NumCells() != 3*4*5 {
		t.Fatalf("NumCells = %d", img.NumCells())
	}
	p := img.Point(2, 0, 4)
	if p[0] != 2 || p[1] != 2 || p[2] != 5 {
		t.Fatalf("Point = %v", p)
	}
	if img.Index(3, 4, 5) != 119 {
		t.Fatalf("Index = %d", img.Index(3, 4, 5))
	}
}

func TestImageDataEncodeDecodeRoundTrip(t *testing.T) {
	img := sphereField([3]int{5, 6, 7}, [3]float64{2, 2, 2}, 1)
	img.AddPointArray("extra", 3)
	dec, err := DecodeImageData(img.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Dims != img.Dims || dec.Origin != img.Origin || dec.Spacing != img.Spacing {
		t.Fatalf("geometry mismatch: %+v", dec)
	}
	if len(dec.PointData) != 2 {
		t.Fatalf("%d arrays", len(dec.PointData))
	}
	a, _ := dec.PointArray("dist")
	b, _ := img.PointArray("dist")
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("data[%d] differs", i)
		}
	}
	if _, err := DecodeImageData([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer should fail")
	}
}

func TestIsosurfaceSphere(t *testing.T) {
	// A radius-field isosurface at r=5 inside a 16^3 grid approximates a
	// sphere: vertices sit near distance 5 from the center, and the total
	// area approaches 4*pi*r^2.
	img := sphereField([3]int{16, 16, 16}, [3]float64{7.5, 7.5, 7.5}, 1)
	mesh, err := Isosurface(img, "dist", 5)
	if err != nil {
		t.Fatal(err)
	}
	if mesh.NumTriangles() < 100 {
		t.Fatalf("only %d triangles", mesh.NumTriangles())
	}
	for v := 0; v < mesh.NumVertices(); v++ {
		x := float64(mesh.Positions[3*v]) - 7.5
		y := float64(mesh.Positions[3*v+1]) - 7.5
		z := float64(mesh.Positions[3*v+2]) - 7.5
		r := math.Sqrt(x*x + y*y + z*z)
		if math.Abs(r-5) > 0.9 {
			t.Fatalf("vertex %d at distance %.3f from center, want ~5", v, r)
		}
	}
	area := meshArea(mesh)
	want := 4 * math.Pi * 25
	if math.Abs(area-want)/want > 0.15 {
		t.Fatalf("area = %.1f, want ~%.1f", area, want)
	}
}

func meshArea(m *TriangleMesh) float64 {
	var area float64
	positions, _ := soup(m)
	for t := 0; t < m.NumTriangles(); t++ {
		var p [3][3]float64
		for v := 0; v < 3; v++ {
			for k := 0; k < 3; k++ {
				p[v][k] = float64(positions[9*t+3*v+k])
			}
		}
		ux, uy, uz := p[1][0]-p[0][0], p[1][1]-p[0][1], p[1][2]-p[0][2]
		vx, vy, vz := p[2][0]-p[0][0], p[2][1]-p[0][1], p[2][2]-p[0][2]
		cx, cy, cz := uy*vz-uz*vy, uz*vx-ux*vz, ux*vy-uy*vx
		area += 0.5 * math.Sqrt(cx*cx+cy*cy+cz*cz)
	}
	return area
}

func TestIsosurfaceEmptyWhenOutOfRange(t *testing.T) {
	img := sphereField([3]int{8, 8, 8}, [3]float64{3.5, 3.5, 3.5}, 1)
	mesh, err := Isosurface(img, "dist", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if mesh.NumTriangles() != 0 {
		t.Fatalf("%d triangles for out-of-range iso", mesh.NumTriangles())
	}
	if _, err := Isosurface(img, "no-such-field", 1); err == nil {
		t.Fatal("unknown field should fail")
	}
}

// Property: isosurfaces of per-block pieces together approximate the
// isosurface of the whole grid (block decomposition does not lose area) —
// the watertightness property parallel rendering relies on.
func TestIsosurfaceBlockDecompositionConsistent(t *testing.T) {
	whole := sphereField([3]int{16, 16, 16}, [3]float64{7.5, 7.5, 7.5}, 1)
	wholeMesh, _ := Isosurface(whole, "dist", 5)

	// Split along z into two overlapping halves (sharing the boundary
	// plane, as block decompositions do).
	half := func(z0, z1 int) *ImageData {
		img := NewImageData([3]int{16, 16, z1 - z0}, [3]float64{0, 0, float64(z0)}, [3]float64{1, 1, 1})
		arr := img.AddPointArray("dist", 1)
		src, _ := whole.PointArray("dist")
		for k := 0; k < z1-z0; k++ {
			for j := 0; j < 16; j++ {
				for i := 0; i < 16; i++ {
					arr.Data[img.Index(i, j, k)] = src.Data[whole.Index(i, j, k+z0)]
				}
			}
		}
		return img
	}
	lo, _ := Isosurface(half(0, 9), "dist", 5)
	hi, _ := Isosurface(half(8, 16), "dist", 5)
	got := meshArea(lo) + meshArea(hi)
	want := meshArea(wholeMesh)
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("split area %.2f vs whole %.2f", got, want)
	}
}

func TestClipMeshHalves(t *testing.T) {
	img := sphereField([3]int{16, 16, 16}, [3]float64{7.5, 7.5, 7.5}, 1)
	mesh, _ := Isosurface(img, "dist", 5)
	clipped := ClipMesh(mesh, Plane{Normal: [3]float32{1, 0, 0}, Offset: 7.5})
	if clipped.NumTriangles() == 0 {
		t.Fatal("clip removed everything")
	}
	for v := 0; v < clipped.NumVertices(); v++ {
		if clipped.Positions[3*v] < 7.5-1e-3 {
			t.Fatalf("vertex %d at x=%f survived the clip", v, clipped.Positions[3*v])
		}
	}
	// Clipping a sphere in half keeps ~half the area.
	ratio := meshArea(clipped) / meshArea(mesh)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("clip kept %.2f of the area, want ~0.5", ratio)
	}
	// Clip everything away.
	gone := ClipMesh(mesh, Plane{Normal: [3]float32{1, 0, 0}, Offset: 1e6})
	if gone.NumTriangles() != 0 {
		t.Fatal("far plane should remove all triangles")
	}
	// Keep everything.
	all := ClipMesh(mesh, Plane{Normal: [3]float32{1, 0, 0}, Offset: -1e6})
	if all.NumTriangles() != mesh.NumTriangles() {
		t.Fatal("permissive plane should keep all triangles")
	}
}

func TestMeshNormalsAreUnit(t *testing.T) {
	m := &TriangleMesh{}
	m.AddTriangle([3]float32{0, 0, 0}, [3]float32{2, 0, 0}, [3]float32{0, 2, 0}, 0, 0, 0)
	n := m.FacetNormal(0)
	if l := math.Sqrt(float64(n[0]*n[0] + n[1]*n[1] + n[2]*n[2])); math.Abs(l-1) > 1e-5 {
		t.Fatalf("normal length %f", l)
	}
	if n != [3]float32{0, 0, 1} {
		t.Fatalf("normal = %v, want +z", n)
	}
}

func TestUnstructuredGridBuildAndRoundTrip(t *testing.T) {
	g := NewUnstructuredGrid()
	p0 := g.AddPoint(0, 0, 0)
	p1 := g.AddPoint(1, 0, 0)
	p2 := g.AddPoint(0, 1, 0)
	p3 := g.AddPoint(0, 0, 1)
	g.AddCell(CellTetra, p0, p1, p2, p3)
	vel := g.AddCellArray("velocity", 1)
	vel.Data[0] = 42

	if g.NumCells() != 1 || g.NumPoints() != 4 {
		t.Fatalf("cells=%d points=%d", g.NumCells(), g.NumPoints())
	}
	c := g.CellCentroid(0)
	if math.Abs(float64(c[0])-0.25) > 1e-6 {
		t.Fatalf("centroid = %v", c)
	}
	dec, err := DecodeUnstructuredGrid(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumCells() != 1 || dec.CellTypes[0] != CellTetra {
		t.Fatalf("decoded cells wrong: %+v", dec.CellTypes)
	}
	arr, err := dec.CellArray("velocity")
	if err != nil || arr.Data[0] != 42 {
		t.Fatalf("cell data lost: %v %v", err, arr)
	}
	if _, err := DecodeUnstructuredGrid([]byte{3, 0}); err == nil {
		t.Fatal("garbage should fail")
	}
}

func TestMergeUnstructured(t *testing.T) {
	mk := func(offset float32, v float32) *UnstructuredGrid {
		g := NewUnstructuredGrid()
		a := g.AddPoint(offset, 0, 0)
		b := g.AddPoint(offset+1, 0, 0)
		c := g.AddPoint(offset, 1, 0)
		d := g.AddPoint(offset, 0, 1)
		g.AddCell(CellTetra, a, b, c, d)
		arr := g.AddCellArray("v", 1)
		arr.Data[0] = v
		return g
	}
	merged, err := MergeUnstructured(mk(0, 1), mk(10, 2), mk(20, 3))
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumCells() != 3 || merged.NumPoints() != 12 {
		t.Fatalf("cells=%d points=%d", merged.NumCells(), merged.NumPoints())
	}
	// Point indices must be remapped, not aliased.
	if c := merged.Cell(2); c[0] != 8 {
		t.Fatalf("third cell connectivity = %v", c)
	}
	arr, _ := merged.CellArray("v")
	if arr.Data[0] != 1 || arr.Data[1] != 2 || arr.Data[2] != 3 {
		t.Fatalf("cell data = %v", arr.Data)
	}
	// Mismatched arrays fail.
	bad := NewUnstructuredGrid()
	bad.AddPoint(0, 0, 0)
	if _, err := MergeUnstructured(mk(0, 1), bad); err == nil {
		t.Fatal("merge with missing arrays should fail")
	}
}

func TestDataArrayRange(t *testing.T) {
	a := &DataArray{Name: "x", Components: 1, Data: []float32{3, -1, 7, 2}}
	lo, hi := a.Range()
	if lo != -1 || hi != 7 {
		t.Fatalf("range = (%f, %f)", lo, hi)
	}
	empty := &DataArray{Name: "e", Components: 1}
	lo, hi = empty.Range()
	if lo != 0 || hi != 0 {
		t.Fatalf("empty range = (%f, %f)", lo, hi)
	}
}

func TestControllerInjection(t *testing.T) {
	world := minimpi.World(2)
	defer world[0].Finalize()
	defer world[1].Finalize()
	ctrl := NewController("mpi", world[1])
	if ctrl.Communicator() != world[1] || ctrl.Rank() != 1 || ctrl.Size() != 2 {
		t.Fatalf("controller lost its communicator: rank %d of %d", ctrl.Rank(), ctrl.Size())
	}
}

// TestBoundsIgnoresNaNCountsInf: the one box rule every bounds in the
// tree folds with — a NaN coordinate is ignored on its axis, ±Inf counts —
// and an empty mesh's zero box.
func TestBoundsIgnoresNaNCountsInf(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	m := &TriangleMesh{}
	if lo, hi := m.Bounds(); lo != [3]float32{} || hi != [3]float32{} {
		t.Fatalf("empty mesh: %v–%v, want zero boxes", lo, hi)
	}
	m.AddTriangle([3]float32{nan, 1, -inf}, [3]float32{2, nan, 0}, [3]float32{-1, 5, nan}, 0, 0, 0)
	lo, hi := m.Bounds()
	if lo != [3]float32{-1, 1, -inf} || hi != [3]float32{2, 5, 0} {
		t.Fatalf("box %v–%v", lo, hi)
	}
	elo, ehi := EmptyBounds()
	if lo, hi := FoldBounds(elo, ehi, []float32{nan, nan, nan}); lo != elo || hi != ehi {
		t.Fatalf("all-NaN positions widened the empty box to %v–%v", lo, hi)
	}
}
