package vtk

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestWriteLegacyUnstructured(t *testing.T) {
	g := NewUnstructuredGrid()
	p0 := g.AddPoint(0, 0, 0)
	p1 := g.AddPoint(1, 0, 0)
	p2 := g.AddPoint(0, 1, 0)
	p3 := g.AddPoint(0, 0, 1)
	g.AddCell(CellTetra, p0, p1, p2, p3)
	arr := g.AddCellArray("velocity", 1)
	arr.Data[0] = 2.5

	var buf bytes.Buffer
	if err := g.WriteLegacy(&buf, "dwi block"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# vtk DataFile Version 3.0",
		"DATASET UNSTRUCTURED_GRID",
		"POINTS 4 float",
		"CELLS 1 5",
		"CELL_TYPES 1",
		"10", // VTK_TETRA
		"CELL_DATA 1",
		"SCALARS velocity float 1",
		"2.5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("legacy output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteLegacyPolyData(t *testing.T) {
	m := &TriangleMesh{}
	m.AddTriangle([3]float32{0, 0, 0}, [3]float32{1, 0, 0}, [3]float32{0, 1, 0}, 1, 2, 3)
	var buf bytes.Buffer
	if err := m.WriteLegacy(&buf, "isosurface"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"DATASET POLYDATA", "POINTS 3 float", "POLYGONS 1 4", "3 0 1 2", "NORMALS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("polydata output missing %q", want)
		}
	}
}

// TestWriteLegacyStructuredPoints pins the exact bytes of a
// STRUCTURED_POINTS file: the header, the geometry, and per array its
// SCALARS line and its values, nine to a line, each printed with as many
// digits as its float32 needs and no more, so the file is lossless.
func TestWriteLegacyStructuredPoints(t *testing.T) {
	const head = "# vtk DataFile Version 3.0\ntitle\nASCII\nDATASET STRUCTURED_POINTS\n"
	image := func(dims [3]int, arrays ...[]float32) *ImageData {
		img := NewImageData(dims, [3]float64{-1, 0.5, 2}, [3]float64{0.25, 1, 3})
		for a, vals := range arrays {
			da := img.AddPointArray(string(rune('a'+a)), len(vals)/img.NumPoints())
			copy(da.Data, vals)
		}
		return img
	}
	cases := []struct {
		name string
		img  *ImageData
		want string
	}{
		{"no-arrays", image([3]int{4, 3, 2}),
			head + "DIMENSIONS 4 3 2\nORIGIN -1 0.5 2\nSPACING 0.25 1 3\n"},
		{"one-scalar", image([3]int{5, 2, 1}, []float32{0, 1, -2, 3.5, 4, 5, 6, 7, 8, 1e-07}),
			head + "DIMENSIONS 5 2 1\nORIGIN -1 0.5 2\nSPACING 0.25 1 3\nPOINT_DATA 10\n" +
				"SCALARS a float 1\nLOOKUP_TABLE default\n0 1 -2 3.5 4 5 6 7 8 \n1e-07 \n"},
		{"multi-array", image([3]int{2, 1, 1}, []float32{1, 2}, []float32{1, 2, 3, 4}, []float32{-1, -2, -3, -4, -5, -6}),
			head + "DIMENSIONS 2 1 1\nORIGIN -1 0.5 2\nSPACING 0.25 1 3\nPOINT_DATA 2\n" +
				"SCALARS a float 1\nLOOKUP_TABLE default\n1 2 \n" +
				"SCALARS b float 2\nLOOKUP_TABLE default\n1 2 3 4 \n" +
				"SCALARS c float 3\nLOOKUP_TABLE default\n-1 -2 -3 -4 -5 -6 \n"},
		{"single-point", image([3]int{1, 1, 1}, []float32{42}, []float32{0.5, 1e+20}),
			head + "DIMENSIONS 1 1 1\nORIGIN -1 0.5 2\nSPACING 0.25 1 3\nPOINT_DATA 1\n" +
				"SCALARS a float 1\nLOOKUP_TABLE default\n42 \n" +
				"SCALARS b float 2\nLOOKUP_TABLE default\n0.5 1e+20 \n"},
		// The float32 neighbours of 1 and 0.1 and the largest odd integer a
		// float32 holds each need every significant digit to read back.
		{"full-precision", image([3]int{3, 1, 1}, []float32{math.Nextafter32(1, 2), math.Nextafter32(0.1, 0), 16777215}),
			head + "DIMENSIONS 3 1 1\nORIGIN -1 0.5 2\nSPACING 0.25 1 3\nPOINT_DATA 3\n" +
				"SCALARS a float 1\nLOOKUP_TABLE default\n1.0000001 0.099999994 1.6777215e+07 \n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.img.WriteLegacy(&buf, "title"); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Fatalf("wrote\n%q\nwant\n%q", got, tc.want)
			}
		})
	}
}

// TestLegacyImageDataRoundTrip writes images whose values use every digit
// a float32 has and reads the file's tokens back: the geometry and every
// array's name, components and values must come out as they went in.
func TestLegacyImageDataRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		dims   [3]int
		arrays int
	}{
		{"no-arrays", [3]int{4, 3, 2}, 0},
		{"one-scalar", [3]int{5, 5, 1}, 1},
		{"multi-array", [3]int{3, 2, 4}, 3},
		{"single-point", [3]int{1, 1, 1}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := NewImageData(tc.dims, [3]float64{-1, 0.5, 2}, [3]float64{0.25, 1, 3})
			for a := 0; a < tc.arrays; a++ {
				da := img.AddPointArray(string(rune('a'+a)), a+1)
				for i := range da.Data {
					da.Data[i] = float32(math.Sin(float64(i*(a+1)))) * 100
				}
			}
			var buf bytes.Buffer
			if err := img.WriteLegacy(&buf, "round trip"); err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitN(buf.String(), "\n", 3)
			if len(lines) != 3 || lines[0] != "# vtk DataFile Version 3.0" || lines[1] != "round trip" {
				t.Fatalf("header %q", lines)
			}
			toks := strings.Fields(lines[2])
			next := func() string {
				t.Helper()
				if len(toks) == 0 {
					t.Fatal("file ends early")
				}
				tok := toks[0]
				toks = toks[1:]
				return tok
			}
			expect := func(words ...string) {
				t.Helper()
				for _, w := range words {
					if got := next(); got != w {
						t.Fatalf("token %q, want %q", got, w)
					}
				}
			}
			float := func(bits int) float64 {
				t.Helper()
				v, err := strconv.ParseFloat(next(), bits)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			expect("ASCII", "DATASET", "STRUCTURED_POINTS", "DIMENSIONS")
			for _, d := range img.Dims {
				expect(strconv.Itoa(d))
			}
			expect("ORIGIN")
			for _, o := range img.Origin {
				if got := float(64); got != o {
					t.Fatalf("origin %g, want %g", got, o)
				}
			}
			expect("SPACING")
			for _, s := range img.Spacing {
				if got := float(64); got != s {
					t.Fatalf("spacing %g, want %g", got, s)
				}
			}
			if len(img.PointData) > 0 {
				expect("POINT_DATA", strconv.Itoa(img.NumPoints()))
			}
			for _, a := range img.PointData {
				expect("SCALARS", a.Name, "float", strconv.Itoa(a.Components), "LOOKUP_TABLE", "default")
				for j, want := range a.Data {
					if got := float32(float(32)); got != want {
						t.Fatalf("array %q value %d: %g, want %g", a.Name, j, got, want)
					}
				}
			}
			if len(toks) != 0 {
				t.Fatalf("%d tokens left over: %q", len(toks), toks)
			}
		})
	}
}
