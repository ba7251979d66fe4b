package icet

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"colza/internal/bufpool"
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
func runComposite(t *testing.T, n int, strat Strategy, mode Mode, root int,
	build func(rank int) *render.Image) *render.Image {
	t.Helper()
	world := minimpi.World(n)
	defer world[0].Finalize()
	var result *render.Image
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out, err := Composite(build(r), world[r], strat, mode, root)
			errs[r] = err
			if r == root {
				result = out
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if result == nil {
		t.Fatal("root got no image")
	}
	return result
}

func TestDepthCompositeNearestWinsAllStrategies(t *testing.T) {
	const w, h = 32, 8
	for _, strat := range []Strategy{TreeReduce, BinarySwap} {
		for _, n := range []int{2, 3, 4, 5, 8, 9} {
			res := runComposite(t, n, strat, Depth, 0, func(rank int) *render.Image {
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
					t.Fatalf("strat=%v n=%d: stripe %d has color (%d,%d), want rank-%d marker", strat, n, r, cr, cg, r)
				}
			}
		}
	}
}

func TestStrategiesProduceIdenticalDepthComposites(t *testing.T) {
	const w, h = 24, 16
	build := func(rank int) *render.Image {
		im := render.NewImage(w, h)
		// Deterministic pseudo-random fragments per rank.
		s := uint64(rank + 1)
		for p := 0; p < 60; p++ {
			s = s*6364136223846793005 + 1442695040888963407
			x := int(s % uint64(w))
			y := int((s >> 16) % uint64(h))
			d := float32((s>>32)%1000) / 1000
			i := y*w + x
			if d < im.Depth[i] {
				im.Depth[i] = d
				o := 4 * i
				im.RGBA[o] = uint8(s >> 40)
				im.RGBA[o+1] = uint8(s >> 48)
				im.RGBA[o+2] = uint8(rank)
				im.RGBA[o+3] = 255
			}
		}
		return im
	}
	for _, n := range []int{4, 6, 7} {
		tree := runComposite(t, n, TreeReduce, Depth, 0, build)
		bswap := runComposite(t, n, BinarySwap, Depth, 0, build)
		for i := range tree.RGBA {
			if tree.RGBA[i] != bswap.RGBA[i] {
				t.Fatalf("n=%d: strategies disagree at byte %d (%d vs %d)", n, i, tree.RGBA[i], bswap.RGBA[i])
			}
		}
		for i := range tree.Depth {
			dt, db := tree.Depth[i], bswap.Depth[i]
			if dt != db && !(math.IsInf(float64(dt), 1) && math.IsInf(float64(db), 1)) {
				t.Fatalf("n=%d: depth planes disagree at %d", n, i)
			}
		}
	}
}

func TestCompositeNonZeroRoot(t *testing.T) {
	res := runComposite(t, 4, BinarySwap, Depth, 2, func(rank int) *render.Image {
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
	// opaque blue layer behind. Over-blending must give red-over-blue,
	// regardless of strategy (bswap falls back to tree for npot sizes).
	const w, h = 8, 8
	for _, strat := range []Strategy{TreeReduce, BinarySwap} {
		for _, n := range []int{2, 3, 4} {
			res := runComposite(t, n, strat, Ordered, 0, func(rank int) *render.Image {
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
				t.Fatalf("strat=%v n=%d: red = %d, want 128", strat, n, r)
			}
			// Blue shows through at (1 - 128/255) ≈ 0.498 → ~127.
			if b < 120 || b > 135 {
				t.Fatalf("strat=%v n=%d: blue = %d, want ~127", strat, n, b)
			}
			if a != 255 {
				t.Fatalf("strat=%v n=%d: alpha = %d", strat, n, a)
			}
		}
	}
}

func TestSingleRankCompositeIsIdentity(t *testing.T) {
	world := minimpi.World(1)
	defer world[0].Finalize()
	im := render.NewImage(4, 4)
	paint(im, 0, 4, 0.5, 9, 8, 7)
	out, err := Composite(im, world[0], BinarySwap, Depth, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out != im {
		t.Fatal("single-rank composite should return the input image")
	}
}

func TestFinalRangesPartitionImage(t *testing.T) {
	for _, p2 := range []int{1, 2, 4, 8, 16} {
		total := 1024
		seen := make([]bool, total)
		for r := 0; r < p2; r++ {
			rng := finalRange(r, p2, total)
			if rng.hi-rng.lo != total/p2 {
				t.Fatalf("p2=%d rank=%d: slice size %d", p2, r, rng.hi-rng.lo)
			}
			for i := rng.lo; i < rng.hi; i++ {
				if seen[i] {
					t.Fatalf("p2=%d: pixel %d owned twice", p2, i)
				}
				seen[i] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("p2=%d: pixel %d unowned", p2, i)
			}
		}
	}
}

func TestRegionCodec(t *testing.T) {
	im := render.NewImage(8, 2)
	paint(im, 2, 6, 0.3, 1, 2, 3)
	rng := pixelRange{4, 12}
	enc := encodeRegion(im, rng)
	out := render.NewImage(8, 2)
	if err := decodeRegionInto(out, enc, rng); err != nil {
		t.Fatal(err)
	}
	for i := rng.lo; i < rng.hi; i++ {
		if out.Depth[i] != im.Depth[i] {
			t.Fatalf("depth mismatch at %d", i)
		}
	}
	if err := decodeRegionInto(out, enc, pixelRange{0, 8}); err == nil {
		t.Fatal("range mismatch must fail")
	}
	if err := decodeRegionInto(out, []byte{1}, rng); err == nil {
		t.Fatal("short payload must fail")
	}
	_ = fmt.Sprintf("%v %v", TreeReduce, BinarySwap) // exercise String()
}

// FuzzDecodeRegion: a region frame comes from a compositing peer.
// Whatever it holds, decodeRegionInto never panics; a frame it refuses
// leaves the image as it was, and a frame it accepts writes the pixels of
// the range it was asked for and no other, and re-encodes to its input.
func FuzzDecodeRegion(f *testing.F) {
	const w, h = 8, 2
	im := render.NewImage(w, h)
	paint(im, 2, 6, 0.3, 1, 2, 3)
	region := encodeRegion(im, pixelRange{4, 12})
	f.Add(region, uint8(4), uint8(8))
	f.Add(encodeRegion(im, pixelRange{0, w * h}), uint8(0), uint8(w*h))
	f.Add(encodeRegion(im, pixelRange{3, 3}), uint8(3), uint8(0))
	f.Add(region, uint8(0), uint8(8))                 // another range than the frame's
	f.Add(region[:len(region)-1], uint8(4), uint8(8)) // cut short
	f.Add(append(region, 0), uint8(4), uint8(8))      // a byte past the depths
	f.Add([]byte{4, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}, uint8(4), uint8(8))
	f.Add([]byte{1}, uint8(4), uint8(8))
	f.Fuzz(func(t *testing.T, raw []byte, lo, n uint8) {
		rng := pixelRange{lo: int(lo) % (w*h + 1)}
		rng.hi = rng.lo + int(n)%(w*h+1-rng.lo)
		out := render.NewImage(w, h)
		for i := range out.RGBA {
			out.RGBA[i] = byte(i * 7)
		}
		for i := range out.Depth {
			out.Depth[i] = float32(i)
		}
		before := render.NewImage(w, h)
		copy(before.RGBA, out.RGBA)
		copy(before.Depth, out.Depth)
		err := decodeRegionInto(out, raw, rng)
		for i := range out.Depth {
			if err == nil && i >= rng.lo && i < rng.hi {
				continue
			}
			if !bytes.Equal(out.RGBA[4*i:4*i+4], before.RGBA[4*i:4*i+4]) || math.Float32bits(out.Depth[i]) != math.Float32bits(before.Depth[i]) {
				t.Fatalf("pixel %d written outside [%d, %d) (err %v)", i, rng.lo, rng.hi, err)
			}
		}
		if err != nil {
			return
		}
		re := encodeRegion(out, rng)
		defer bufpool.Put(re)
		if !bytes.Equal(re, raw) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, raw)
		}
	})
}

// TestCompositeRootOutsidePowerOfTwo: with a non-power-of-two group the
// root may be one of the folded-away ranks (root >= p2); the gather must
// still assemble the full image there.
func TestCompositeRootOutsidePowerOfTwo(t *testing.T) {
	const n, root = 6, 5
	res := runComposite(t, n, BinarySwap, Depth, root, func(rank int) *render.Image {
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

// Ordered binary swap on a power-of-two group agrees with tree reduce.
func TestOrderedBinarySwapMatchesTreeAtPowerOfTwo(t *testing.T) {
	const n = 4
	build := func(rank int) *render.Image {
		im := render.NewImage(8, 8)
		for i := 0; i < 64; i++ {
			o := 4 * i
			//Half-transparent layer per rank with rank-dependent color.
			im.RGBA[o] = uint8(60 * rank)
			im.RGBA[o+1] = uint8(255 - 60*rank)
			im.RGBA[o+3] = 100
			im.Depth[i] = float32(rank) / 10
		}
		return im
	}
	tree := runComposite(t, n, TreeReduce, Ordered, 0, build)
	bswap := runComposite(t, n, BinarySwap, Ordered, 0, build)
	for i := range tree.RGBA {
		d := int(tree.RGBA[i]) - int(bswap.RGBA[i])
		if d < -1 || d > 1 { // allow 1-step rounding differences
			t.Fatalf("ordered strategies disagree at byte %d: %d vs %d", i, tree.RGBA[i], bswap.RGBA[i])
		}
	}
}
