package vtk

import (
	"runtime"
	"testing"
)

// FuzzDecodeImageData: decoding never panics and allocates no more than a
// small multiple of the input's length, whatever its counts claim; and a
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		img, err := DecodeImageData(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(8*len(data)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
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
