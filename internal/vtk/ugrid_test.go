package vtk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// tetraGrid is four points and one cell of type t over pts, with a
// one-component cell array of cells tuples.
func tetraGrid(t CellType, cells int, pts ...int32) *UnstructuredGrid {
	g := NewUnstructuredGrid()
	g.AddPoint(0, 0, 0)
	g.AddPoint(1, 0, 0)
	g.AddPoint(0, 1, 0)
	g.AddPoint(0, 0, 1)
	g.AddCell(t, pts...)
	g.CellData = append(g.CellData, NewDataArray("velocity", 1, cells))
	return g
}

// hostileGrids are staged blocks a filter would index out of, each
// encoded as a client could send it.
func hostileGrids() []struct {
	name string
	data []byte
} {
	shortPoints := tetraGrid(CellTetra, 1, 0, 1, 2, 3)
	shortPoints.PointData = append(shortPoints.PointData, NewDataArray("p", 1, 3))
	lying := tetraGrid(CellTetra, 1, 0, 1, 2, 3)
	lyingCount := lying.Encode()
	binary.LittleEndian.PutUint32(lyingCount[len(lyingCount)-4-lying.CellData[0].EncodedSize():], 1<<20)
	return []struct {
		name string
		data []byte
	}{
		{"connectivity past the points", tetraGrid(CellTetra, 1, 0, 1, 2, 1000).Encode()},
		{"negative connectivity", tetraGrid(CellTetra, 1, 0, 1, 2, -1).Encode()},
		{"unknown cell type", tetraGrid(CellType(7), 1, 0, 1, 2).Encode()},
		{"short cell array", tetraGrid(CellTetra, 0, 0, 1, 2, 3).Encode()},
		{"long cell array", tetraGrid(CellTetra, 2, 0, 1, 2, 3).Encode()},
		{"short point array", shortPoints.Encode()},
		{"array count past the input", lyingCount},
	}
}

func TestDecodeUnstructuredGridRefusesHostileBlocks(t *testing.T) {
	if _, err := DecodeUnstructuredGrid(tetraGrid(CellTetra, 1, 0, 1, 2, 3).Encode()); err != nil {
		t.Fatalf("well-formed grid refused: %v", err)
	}
	for _, h := range hostileGrids() {
		if g, err := DecodeUnstructuredGrid(h.data); err == nil {
			t.Errorf("%s: decoded to %d points, %d cells", h.name, g.NumPoints(), g.NumCells())
		}
	}
}

// TestDecodeUnstructuredGridEveryCellType: a grid holding one cell of
// each supported type, a point array and a cell array decodes to itself,
// and every proper prefix of its encoding is refused.
func TestDecodeUnstructuredGridEveryCellType(t *testing.T) {
	g := NewUnstructuredGrid()
	for i := 0; i < 8; i++ {
		g.AddPoint(float32(i&1), float32(i>>1&1), float32(i>>2&1))
	}
	g.AddCell(CellTriangle, 0, 1, 2)
	g.AddCell(CellTetra, 0, 1, 2, 4)
	g.AddCell(CellVoxel, 0, 1, 2, 3, 4, 5, 6, 7)
	g.AddCell(CellHexahedron, 0, 1, 3, 2, 4, 5, 7, 6)
	g.PointData = append(g.PointData, NewDataArray("normal", 3, g.NumPoints()))
	g.AddCellArray("velocity", 1)
	enc := g.Encode()
	dec, err := DecodeUnstructuredGrid(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("decoded grid re-encodes differently")
	}
	if a, err := dec.PointArray("normal"); err != nil || a.NumTuples() != 8 {
		t.Fatalf("point array: %v, %v", a, err)
	}
	for n := range len(enc) {
		if _, err := DecodeUnstructuredGrid(enc[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte grid decoded", n, len(enc))
		}
	}
}

// FuzzDecodeUnstructuredGrid: decoding never panics; what it refuses it
// refuses with ErrDecode; decoding into a spare that holds another valid
// grid gives the grid a fresh decode gives, in the spare, or the same
// refusal; and a grid it accepts is one the filters can walk — every
// cell's centroid reads points that exist, every array holds one tuple per
// point or cell — and re-encodes to the bytes it was decoded from.
func FuzzDecodeUnstructuredGrid(f *testing.F) {
	f.Add(tetraGrid(CellTetra, 1, 0, 1, 2, 3).Encode())
	f.Add(NewUnstructuredGrid().Encode())
	for _, h := range hostileGrids() {
		f.Add(h.data)
	}
	tri := tetraGrid(CellTriangle, 1, 0, 1, 3)
	tri.PointData = append(tri.PointData, NewDataArray("normal", 3, tri.NumPoints()))
	tri.AddCellArray("density", 2)
	spares := [][]byte{tetraGrid(CellTetra, 1, 0, 1, 2, 3).Encode(), tri.Encode()}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeUnstructuredGrid(data)
		if err != nil && !errors.Is(err, ErrDecode) {
			t.Fatalf("refused with %v, not ErrDecode", err)
		}
		for _, enc := range spares {
			spare, serr := DecodeUnstructuredGrid(enc)
			if serr != nil {
				t.Fatal(serr)
			}
			got, gerr := DecodeUnstructuredGridInto(spare, data)
			if err != nil {
				if !errors.Is(gerr, ErrDecode) {
					t.Fatalf("a fresh decode refuses, one into a spare returns %v", gerr)
				}
				continue
			}
			want, _ := DecodeUnstructuredGrid(data) // unNaN writes what it compares
			same := unNaN(got.Points, want.Points) && sameArrays(got.PointData, want.PointData) && sameArrays(got.CellData, want.CellData)
			if gerr != nil || got != spare || !same || !reflect.DeepEqual(got, want) {
				t.Fatalf("decoding into a spare: %v, in the spare %v, equal to a fresh decode %v", gerr, got == spare, reflect.DeepEqual(got, want))
			}
		}
		if err != nil {
			return
		}
		for c := range g.NumCells() {
			g.CellCentroid(c)
		}
		tuples := func(arrays []*DataArray, n int) {
			for _, a := range arrays {
				if len(a.Data) != a.Components*n {
					t.Fatalf("accepted array %q of %d values for %d tuples of %d", a.Name, len(a.Data), n, a.Components)
				}
			}
		}
		tuples(g.PointData, g.NumPoints())
		tuples(g.CellData, g.NumCells())
		if enc := g.Encode(); !bytes.Equal(enc, data[:len(enc)]) {
			t.Fatal("accepted grid does not re-encode to its input")
		}
	})
}
