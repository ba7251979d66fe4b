package vtk

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// unNaN reports whether a and b hold the same bits, and then zeroes every
// NaN in both, so that reflect.DeepEqual, to which no NaN equals itself,
// can compare what holds them.
func unNaN(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
		if a[i] != a[i] {
			a[i], b[i] = 0, 0
		}
	}
	return true
}

// sameArrays is unNaN over the values of two array lists, pairwise.
func sameArrays(a, b []*DataArray) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !unNaN(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// FuzzDecodeImageData: decoding never panics and allocates no more than a
// small multiple of the input's length, whatever its counts claim; what it
// refuses it refuses with ErrDecode; decoding into a spare that holds
// another valid grid (other dims, array count, names or components) gives
// the grid a fresh decode gives, in the spare, or the same refusal; and a
// grid it accepts is one the iso pipeline can contour — ExtractIsosurfaces,
// with and without a clip plane, over every scalar array.
func FuzzDecodeImageData(f *testing.F) {
	sphere := sphereField([3]int{5, 4, 3}, [3]float64{2, 1.5, 1}, 1).Encode()
	f.Add(sphere)
	f.Add(sphere[:len(sphere)-1])
	f.Add(NewImageData([3]int{1, 1, 1}, [3]float64{}, [3]float64{1, 1, 1}).Encode())
	vec := NewImageData([3]int{2, 2, 2}, [3]float64{-1, 0, 1}, [3]float64{0.5, 2, 1})
	vec.AddPointArray("velocity", 3)
	vec.AddPointArray("f", 1).Data[3] = 1
	f.Add(vec.Encode())
	f.Add(append(NewImageData([3]int{1 << 16, 1 << 16, 1 << 16}, [3]float64{}, [3]float64{1, 1, 1}).Encode(), 1, 0, 0, 0))
	three := NewImageData([3]int{6, 2, 3}, [3]float64{3, 2, 1}, [3]float64{1, 1, 2})
	for _, name := range []string{"V", "U", "scalars"} {
		three.AddPointArray(name, 1).Data[1] = 2
	}
	spares := [][]byte{sphere, vec.Encode(), three.Encode()}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		img, err := DecodeImageData(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(8*len(data)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil && !errors.Is(err, ErrDecode) {
			t.Fatalf("refused with %v, not ErrDecode", err)
		}
		for _, enc := range spares {
			spare, serr := DecodeImageData(enc)
			if serr != nil {
				t.Fatal(serr)
			}
			got, gerr := DecodeImageDataInto(spare, data)
			if err != nil {
				if !errors.Is(gerr, ErrDecode) {
					t.Fatalf("a fresh decode refuses, one into a spare returns %v", gerr)
				}
				continue
			}
			want, _ := DecodeImageData(data) // unNaN writes what it compares
			if gerr != nil || got != spare || !sameArrays(got.PointData, want.PointData) || !reflect.DeepEqual(got, want) {
				t.Fatalf("decoding into a spare: %v, in the spare %v, equal to a fresh decode %v", gerr, got == spare, reflect.DeepEqual(got, want))
			}
		}
		if err != nil {
			return
		}
		clip := &Plane{Normal: [3]float32{1, 0.5, 0}, Offset: 0.5}
		for _, a := range img.PointData {
			if found, _ := img.PointArray(a.Name); found != a || a.Components != 1 {
				continue // shadowed by an earlier array of its name, or not scalar
			}
			var mesh TriangleMesh
			for _, p := range []*Plane{nil, clip} {
				if err := ExtractIsosurfaces(&mesh, img, a.Name, []float64{0.5, -1, 1e30}, p); err != nil {
					t.Fatalf("accepted grid: contouring %q: %v", a.Name, err)
				}
			}
		}
	})
}
