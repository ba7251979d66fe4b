package icet

import (
	"bytes"
	"sync"
	"testing"

	"colza/internal/collectives"
	"colza/internal/minimpi"
	"colza/internal/render"
)

// depthScene builds per-rank images where rank r paints a known region at
// depth proportional to some permutation, so the composited winner per
// pixel is predictable.
func paint(im *render.Image, x0, x1 int, depth float32, r, g, b uint8) {
	for y := 0; y < im.H; y++ {
		for x := x0; x < x1 && x < im.W; x++ {
			i := y*im.W + x
			if depth < im.Depth[i] {
				im.Depth[i] = depth
				o := 4 * i
				im.RGBA[o], im.RGBA[o+1], im.RGBA[o+2], im.RGBA[o+3] = r, g, b, 255
			}
		}
	}
}

// runComposite executes Composite on a minimpi world of n ranks with
// per-rank image builders, returning the root image.
func runComposite(t *testing.T, n int, mode Mode, root int,
	build func(rank int) *render.Image) *render.Image {
	t.Helper()
	world := minimpi.World(n)
	defer world[0].Finalize()
	outs, errs := compositeAll(world, mode, root, build)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if outs[root] == nil {
		t.Fatal("root got no image")
	}
	return outs[root]
}

// compositeAll runs Composite on every rank of world, rank r with the
// image build(r), and returns what each rank got.
func compositeAll(world []*minimpi.Comm, mode Mode, root int, build func(rank int) *render.Image) ([]*render.Image, []error) {
	outs, errs := make([]*render.Image, len(world)), make([]error, len(world))
	var wg sync.WaitGroup
	for r := range world {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = Composite(build(r), world[r], TreeReduce, mode, root)
		}(r)
	}
	wg.Wait()
	return outs, errs
}

func TestDepthCompositeNearestWinsAllStrategies(t *testing.T) {
	const w, h = 32, 8
	for _, n := range []int{2, 3, 4, 5, 8, 9} {
		res := runComposite(t, n, Depth, 0, func(rank int) *render.Image {
			im := render.NewImage(w, h)
			// Every rank paints the whole width; rank r's depth is
			// 0.9 - 0.1*r on its "own" column band and 0.95 elsewhere,
			// so the nearest (highest rank) band wins each stripe.
			stripe := w / n
			x0 := rank * stripe
			x1 := x0 + stripe
			paint(im, 0, w, 0.95-0.01*float32(rank), 10, 10, 10)
			paint(im, x0, x1, 0.1, uint8(100+rank), 200, 50)
			return im
		})
		stripe := w / n
		for r := 0; r < n; r++ {
			x := r*stripe + stripe/2
			cr, cg, _, _ := res.At(x, h/2)
			if cg != 200 || cr != uint8(100+r) {
				t.Fatalf("n=%d: stripe %d has color (%d,%d), want rank-%d marker", n, r, cr, cg, r)
			}
		}
	}
}

func TestCompositeNonZeroRoot(t *testing.T) {
	res := runComposite(t, 4, Depth, 2, func(rank int) *render.Image {
		im := render.NewImage(16, 4)
		paint(im, rank*4, rank*4+4, 0.5, uint8(rank*20+5), 0, 0)
		return im
	})
	for r := 0; r < 4; r++ {
		cr, _, _, _ := res.At(r*4+1, 2)
		if cr != uint8(r*20+5) {
			t.Fatalf("root=2 composite lost rank %d region (got %d)", r, cr)
		}
	}
}

func TestOrderedCompositeRankOrder(t *testing.T) {
	// Rank 0 paints a half-transparent red layer in front; rank 1 an
	// opaque blue layer behind. Over-blending must give red-over-blue.
	const w, h = 8, 8
	for _, n := range []int{2, 3, 4} {
		res := runComposite(t, n, Ordered, 0, func(rank int) *render.Image {
			im := render.NewImage(w, h)
			if rank == 0 {
				for i := 0; i < w*h; i++ {
					o := 4 * i
					im.RGBA[o], im.RGBA[o+3] = 128, 128 // premultiplied half red
					im.Depth[i] = 0.2
				}
			} else if rank == 1 {
				for i := 0; i < w*h; i++ {
					o := 4 * i
					im.RGBA[o+2], im.RGBA[o+3] = 255, 255 // opaque blue
					im.Depth[i] = 0.8
				}
			}
			return im
		})
		r, _, b, a := res.At(4, 4)
		if r != 128 {
			t.Fatalf("n=%d: red = %d, want 128", n, r)
		}
		// Blue shows through at (1 - 128/255) ≈ 0.498 → ~127.
		if b < 120 || b > 135 {
			t.Fatalf("n=%d: blue = %d, want ~127", n, b)
		}
		if a != 255 {
			t.Fatalf("n=%d: alpha = %d", n, a)
		}
	}
}

func TestSingleRankCompositeIsIdentity(t *testing.T) {
	world := minimpi.World(1)
	defer world[0].Finalize()
	im := render.NewImage(4, 4)
	paint(im, 0, 4, 0.5, 9, 8, 7)
	out, err := Composite(im, world[0], TreeReduce, Depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != im {
		t.Fatal("single-rank composite should return the input image")
	}
}

// TestCompositeRootOutsidePowerOfTwo: with a non-power-of-two group the
// root may be the last rank, past the largest power of two; the reduction,
// rotated to that root, must still assemble the full image there.
func TestCompositeRootOutsidePowerOfTwo(t *testing.T) {
	const n, root = 6, 5
	res := runComposite(t, n, Depth, root, func(rank int) *render.Image {
		im := render.NewImage(12, 4)
		paint(im, rank*2, rank*2+2, 0.5, uint8(rank*10+1), 7, 7)
		return im
	})
	for r := 0; r < n; r++ {
		cr, _, _, _ := res.At(r*2, 2)
		if cr != uint8(r*10+1) {
			t.Fatalf("root=%d composite lost rank %d stripe (got %d)", root, r, cr)
		}
	}
}

// leafWatch is one rank of a reduce, recording the slices it hands to
// Send and whether it received anything.
type leafWatch struct {
	*minimpi.Comm
	sent     [][]byte
	received bool
}

func (w *leafWatch) Send(dst, tag int, data []byte) error {
	w.sent = append(w.sent, data)
	return w.Comm.Send(dst, tag, data)
}

func (w *leafWatch) Recv(src, tag int) ([]byte, error) {
	w.received = true
	return w.Comm.Recv(src, tag)
}

// TestDepthMergeReduceLeavesInputsAlone: the composite's reduction, with
// its depth-merge op, on 1–5 ranks and every root, writes no rank's
// encoded frame, a leaf sends its frame as it lies instead of a copy, and
// the root folds into a buffer of its own, equal to the sequential merge.
func TestDepthMergeReduceLeavesInputsAlone(t *testing.T) {
	op := func(acc, in []byte) []byte { mergeEncoded(acc, in, Depth); return acc }
	for n := 1; n <= 5; n++ {
		for root := 0; root < n; root++ {
			frames, snap := make([][]byte, n), make([][]byte, n)
			for r := range frames {
				im := render.NewImage(6, 4)
				paint(im, r, r+3, float32((r*7)%5+1), uint8(40*r), 9, 200)
				frames[r] = im.Encode()
				snap[r] = im.Encode()
			}
			world := minimpi.World(n)
			watch := make([]*leafWatch, n)
			outs := make([][]byte, n)
			var wg sync.WaitGroup
			for r := range world {
				watch[r] = &leafWatch{Comm: world[r]}
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var err error
					if outs[r], err = collectives.Reduce(watch[r], root, tagBase, frames[r], op, collectives.DefaultAlgorithm); err != nil {
						t.Errorf("n=%d root=%d rank %d: %v", n, root, r, err)
					}
				}(r)
			}
			wg.Wait()
			world[0].Finalize()
			want := append([]byte(nil), snap[0]...)
			for _, f := range snap[1:] {
				mergeEncoded(want, f, Depth)
			}
			for r := range frames {
				if !bytes.Equal(frames[r], snap[r]) {
					t.Fatalf("n=%d root=%d: rank %d's frame was written", n, root, r)
				}
				if w := watch[r]; !w.received && r != root && (len(w.sent) != 1 || &w.sent[0][0] != &frames[r][0]) {
					t.Fatalf("n=%d root=%d: leaf %d sent a copy of its frame", n, root, r)
				}
			}
			if !bytes.Equal(outs[root], want) {
				t.Fatalf("n=%d root=%d: the reduced frame differs from the sequential merge", n, root)
			}
			if n > 1 && &outs[root][0] == &frames[root][0] {
				t.Fatalf("n=%d root=%d: the root's result is its own frame", n, root)
			}
		}
	}
}
