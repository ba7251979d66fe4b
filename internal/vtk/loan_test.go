package vtk

import (
	"math/rand"
	"sync"
	"testing"
)

// TestDecodeFromRewrittenSpan: a staged block reaches Backend.Stage on
// loan, possibly as a view of a client's shared arena that the client (or a
// bug in it) may rewrite while the server decodes. The decoders read each
// byte of their input once, into their own structures, and validate those:
// so whatever a writer does to the span meanwhile, a decode is refused or
// internally valid — every connectivity entry in range, offsets that walk
// the cell types, every array holding one tuple per point or cell. It races
// a writer against the decoder on purpose, so it does not run under -race.
func TestDecodeFromRewrittenSpan(t *testing.T) {
	if raceEnabled {
		t.Skip("races a writer against the decoder on purpose")
	}
	img := NewImageData([3]int{6, 5, 4}, [3]float64{0, 0, 0}, [3]float64{1, 1, 1})
	img.AddPointArray("value", 1)
	img.AddPointArray("velocity", 3)
	small := NewImageData([3]int{2, 3, 5}, [3]float64{1, 2, 3}, [3]float64{0.5, 0.5, 0.5})
	small.AddPointArray("value", 2)

	grid := NewUnstructuredGrid()
	for i := 0; i < 8; i++ {
		grid.AddPoint(float32(i&1), float32(i>>1&1), float32(i>>2))
	}
	grid.AddCell(CellTetra, 0, 1, 2, 4)
	grid.AddCell(CellHexahedron, 0, 1, 3, 2, 4, 5, 7, 6)
	grid.AddCell(CellTetra, 7, 6, 5, 3)
	grid.PointData = append(grid.PointData, NewDataArray("p", 1, 8))
	grid.CellData = append(grid.CellData, NewDataArray("velocity", 3, 3))
	var sources [][]byte
	for _, h := range hostileGrids() {
		sources = append(sources, h.data)
	}

	for _, tc := range []struct {
		name   string
		enc    []byte
		others [][]byte
		decode func([]byte) error
	}{
		{name: "imagedata", enc: img.Encode(), others: [][]byte{small.Encode()}, decode: func(b []byte) error {
			got, err := DecodeImageData(b)
			if err != nil {
				return err
			}
			checkImage(t, got)
			return nil
		}},
		{name: "ugrid", enc: grid.Encode(), others: sources, decode: func(b []byte) error {
			got, err := DecodeUnstructuredGrid(b)
			if err != nil {
				return err
			}
			checkGrid(t, got)
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			span := append([]byte(nil), tc.enc...)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // the writer: windows of the block, of other blocks, of noise
				defer wg.Done()
				rng := rand.New(rand.NewSource(1))
				noise := make([]byte, len(span))
				for {
					select {
					case <-stop:
						return
					default:
					}
					src, lo := tc.enc, rng.Intn(len(span))
					hi := lo + 1 + rng.Intn(len(span)-lo)
					switch rng.Intn(4) {
					case 0: // the whole block back
						lo, hi = 0, len(span)
					case 1:
						src = tc.others[rng.Intn(len(tc.others))]
					case 2: // a few words of noise
						rng.Read(noise)
						src, hi = noise, min(hi, lo+16)
					}
					if hi = min(hi, len(src)); lo < hi {
						copy(span[lo:hi], src[lo:hi])
					}
				}
			}()
			var ok, refused int
			for i := 0; i < 20000; i++ {
				if tc.decode(span) == nil {
					ok++
				} else {
					refused++
				}
			}
			close(stop)
			wg.Wait()
			t.Logf("%d decodes valid, %d refused", ok, refused)
		})
	}
}

// checkImage fails t unless img is internally valid.
func checkImage(t *testing.T, img *ImageData) {
	t.Helper()
	for _, d := range img.Dims {
		if d < 1 || d > 1<<16 {
			t.Fatalf("decoded image dims %v", img.Dims)
		}
	}
	checkTuples(t, img.PointData, img.NumPoints())
}

// checkGrid fails t unless g is internally valid.
func checkGrid(t *testing.T, g *UnstructuredGrid) {
	t.Helper()
	np := g.NumPoints()
	if len(g.Points) != 3*np {
		t.Fatalf("%d point coordinates", len(g.Points))
	}
	for i, p := range g.Conn {
		if p < 0 || int(p) >= np {
			t.Fatalf("connectivity entry %d = %d with %d points", i, p, np)
		}
	}
	if len(g.Offsets) != len(g.CellTypes)+1 || g.Offsets[0] != 0 || int(g.Offsets[len(g.Offsets)-1]) != len(g.Conn) {
		t.Fatalf("offsets %v for %d cells over %d entries", g.Offsets, len(g.CellTypes), len(g.Conn))
	}
	for i, ct := range g.CellTypes {
		if n := ct.PointsPerCell(); n == 0 || int(g.Offsets[i+1]-g.Offsets[i]) != n {
			t.Fatalf("cell %d of type %d spans %d entries", i, ct, g.Offsets[i+1]-g.Offsets[i])
		}
	}
	checkTuples(t, g.PointData, np)
	checkTuples(t, g.CellData, len(g.CellTypes))
}

func checkTuples(t *testing.T, arrays []*DataArray, n int) {
	t.Helper()
	for _, a := range arrays {
		if a.Components < 1 || len(a.Data) != a.Components*n {
			t.Fatalf("array %q: %d values of %d components for %d tuples", a.Name, len(a.Data), a.Components, n)
		}
	}
}
