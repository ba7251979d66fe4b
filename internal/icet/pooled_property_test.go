package icet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"colza/internal/minimpi"
	"colza/internal/render"
)

// randomImage builds a deterministic pseudo-random framebuffer: a mix of
// covered pixels (finite depth) and background, with premultiplied-style
// alpha so ordered blending stays in range.
func randomImage(rng *rand.Rand, w, h int) *render.Image {
	im := render.NewImage(w, h)
	for i := 0; i < w*h; i++ {
		if rng.Float64() < 0.3 {
			continue // background: +Inf depth, transparent black
		}
		a := uint8(rng.Intn(256))
		im.RGBA[4*i] = uint8(rng.Intn(int(a) + 1))
		im.RGBA[4*i+1] = uint8(rng.Intn(int(a) + 1))
		im.RGBA[4*i+2] = uint8(rng.Intn(int(a) + 1))
		im.RGBA[4*i+3] = a
		im.Depth[i] = rng.Float32()*2 - 1
	}
	return im
}

// referenceCompositeMode is the unpooled oracle: a replay of the binomial
// reduction's fold order (root 0) over fresh images, so the association
// order matches what both strategies compute. Ordered "over" blending with
// uint8 quantization is not associative, so a plain sequential fold would
// diverge from the tree at n >= 4 even though both are "correct" blends;
// byte-identity only holds against the same fold shape. BinarySwap shares
// the shape: its swap rounds (dist = 1, 2, 4, ...) pair rank r with r^dist
// exactly like the reduction's masks, and Composite falls back to
// TreeReduce for ordered non-power-of-two sizes.
func referenceCompositeMode(imgs []*render.Image, mode Mode) *render.Image {
	n := len(imgs)
	acc := make([]*render.Image, n)
	for r := range imgs {
		acc[r] = render.NewImage(imgs[r].W, imgs[r].H)
		copy(acc[r].RGBA, imgs[r].RGBA)
		copy(acc[r].Depth, imgs[r].Depth)
	}
	for mask := 1; mask < n; mask <<= 1 {
		// Within one mask round no receiver (r&mask == 0) is also a sender
		// (r|mask has the bit set), so in-place merging in rank order is the
		// same schedule the real reduction runs.
		for r := 0; r < n; r++ {
			if r&mask == 0 && r|mask < n {
				mergePixels(acc[r], acc[r|mask], mode)
			}
		}
	}
	return acc[0]
}

// mergePixels merges src into dst as the tree composite's fold did before
// it merged encoded frames in place: "dst wins ties" for depth;
// dst-over-src for ordered, i.e. src is behind dst.
func mergePixels(dst, src *render.Image, mode Mode) {
	n := dst.W * dst.H
	switch mode {
	case Ordered:
		for i := 0; i < n; i++ {
			o := 4 * i
			da := float64(dst.RGBA[o+3]) / 255
			for k := 0; k < 3; k++ {
				v := float64(dst.RGBA[o+k]) + (1-da)*float64(src.RGBA[o+k])
				if v > 255 {
					v = 255
				}
				dst.RGBA[o+k] = uint8(v)
			}
			na := float64(dst.RGBA[o+3]) + (1-da)*float64(src.RGBA[o+3])
			if na > 255 {
				na = 255
			}
			dst.RGBA[o+3] = uint8(na)
			if src.Depth[i] < dst.Depth[i] {
				dst.Depth[i] = src.Depth[i]
			}
		}
	default: // Depth
		for i := 0; i < n; i++ {
			if src.Depth[i] < dst.Depth[i] {
				dst.Depth[i] = src.Depth[i]
				o := 4 * i
				copy(dst.RGBA[o:o+4], src.RGBA[o:o+4])
			}
		}
	}
}

// TestMergeEncodedMatchesMergePixels: folding encoded frames in place gives
// the bytes that decoding both, mergePixels and re-encoding gave, for 1-5
// ranks' random frames in the binomial reduction's fold order, in both
// modes — with NaN, ±Inf and equal depths planted, and RGBA bytes that
// exceed their alpha so the blend clamps.
func TestMergeEncodedMatchesMergePixels(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 20; trial++ {
		for _, mode := range []Mode{Depth, Ordered} {
			for n := 1; n <= 5; n++ {
				w, h := 1+rng.Intn(40), 1+rng.Intn(40)
				imgs := make([]*render.Image, n)
				enc := make([][]byte, n)
				for r := range imgs {
					imgs[r] = randomImage(rng, w, h)
					for i := range imgs[r].Depth {
						switch rng.Intn(12) {
						case 0:
							imgs[r].Depth[i] = float32(math.NaN())
						case 1:
							imgs[r].Depth[i] = float32(math.Inf(-1))
						case 2:
							imgs[r].Depth[i] = 0.5
						case 3:
							rng.Read(imgs[r].RGBA[4*i : 4*i+4])
						}
					}
					enc[r] = imgs[r].Encode()
				}
				want := referenceCompositeMode(imgs, mode).Encode()
				for mask := 1; mask < n; mask <<= 1 {
					for r := 0; r < n; r++ {
						if r&mask == 0 && r|mask < n {
							mergeEncoded(enc[r], enc[r|mask], mode)
						}
					}
				}
				if !bytes.Equal(enc[0], want) {
					t.Fatalf("trial %d, %v, %d ranks of %dx%d: the in-place fold differs from mergePixels", trial, mode, n, w, h)
				}
			}
		}
	}
}

// TestMergeEncodedLeavesMalformedFrames: a fold with a frame that is not
// one (short, a zero or oversized side, a length off by one) or of another
// size leaves the accumulator untouched.
func TestMergeEncodedLeavesMalformedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	frame := randomImage(rng, 6, 4).Encode()
	wider := randomImage(rng, 8, 3).Encode() // the same length, another shape
	header := func(w, h uint32, n int) []byte {
		b := make([]byte, n)
		binary.LittleEndian.PutUint32(b, w)
		binary.LittleEndian.PutUint32(b[4:], h)
		return b
	}
	for name, c := range map[string][2][]byte{
		"short accumulator":    {frame[:7], frame},
		"short frame":          {frame, frame[:7]},
		"zero width":           {header(0, 4, 8), header(0, 4, 8)},
		"oversized":            {header(1<<15, 1, 8+8<<15), header(1<<15, 1, 8+8<<15)},
		"length off by one":    {frame[:len(frame)-1], frame[:len(frame)-1]},
		"sizes differ":         {frame, randomImage(rng, 5, 4).Encode()},
		"shapes differ":        {frame, wider},
		"frame to accumulator": {wider, frame},
	} {
		for _, mode := range []Mode{Depth, Ordered} {
			acc := bytes.Clone(c[0])
			mergeEncoded(acc, c[1], mode)
			if !bytes.Equal(acc, c[0]) {
				t.Errorf("%s, %v: the accumulator changed", name, mode)
			}
		}
	}
}

// TestPooledCompositeMatchesReference: the pooled composite paths must be
// byte-identical to the unpooled reference at every size 1..8, for both
// blend modes and both strategies. Run under -race this also catches
// aliasing between pooled scratch images and data still in flight.
func TestPooledCompositeMatchesReference(t *testing.T) {
	const w, h = 19, 13 // odd sizes exercise uneven region splits
	for _, strat := range []Strategy{TreeReduce, BinarySwap} {
		for _, mode := range []Mode{Depth, Ordered} {
			for n := 1; n <= 8; n++ {
				t.Run(fmt.Sprintf("%s/%v/ranks=%d", strat, mode, n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(1000*int(strat) + 100*int(mode) + n)))
					imgs := make([]*render.Image, n)
					for r := range imgs {
						imgs[r] = randomImage(rng, w, h)
					}
					// Keep pristine copies: Composite must not mutate its input.
					inputs := make([][]byte, n)
					for r := range imgs {
						inputs[r] = imgs[r].Encode()
					}
					want := referenceCompositeMode(imgs, mode)

					world := minimpi.World(n)
					results := make([]*render.Image, n)
					errs := make([]error, n)
					var wg sync.WaitGroup
					for r := 0; r < n; r++ {
						wg.Add(1)
						go func(r int) {
							defer wg.Done()
							results[r], errs[r] = Composite(imgs[r], world[r], strat, mode, 0)
						}(r)
					}
					wg.Wait()
					for r, err := range errs {
						if err != nil {
							t.Fatalf("rank %d: %v", r, err)
						}
					}
					if results[0] == nil {
						t.Fatal("no image at root")
					}
					if !bytes.Equal(results[0].Encode(), want.Encode()) {
						t.Fatal("pooled composite differs from unpooled reference")
					}
					for r := 1; r < n; r++ {
						if n > 1 && results[r] != nil {
							t.Fatalf("rank %d returned an image; only root should", r)
						}
					}
					for r := range imgs {
						if !bytes.Equal(imgs[r].Encode(), inputs[r]) {
							t.Fatalf("Composite mutated rank %d's input image", r)
						}
					}
				})
			}
		}
	}
}

// TestPooledCompositeRepeatedRounds runs many composites back to back so
// pooled scratch from round k is recycled into round k+1; any retained
// alias (e.g. a result image accidentally pooled) would corrupt later
// rounds.
func TestPooledCompositeRepeatedRounds(t *testing.T) {
	const w, h, n, rounds = 16, 16, 4, 12
	rng := rand.New(rand.NewSource(42))
	world := minimpi.World(n)
	for _, strat := range []Strategy{TreeReduce, BinarySwap} {
		for round := 0; round < rounds; round++ {
			imgs := make([]*render.Image, n)
			for r := range imgs {
				imgs[r] = randomImage(rng, w, h)
			}
			want := referenceCompositeMode(imgs, Depth)
			results := make([]*render.Image, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					results[r], errs[r] = Composite(imgs[r], world[r], strat, Depth, 0)
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("%v round %d rank %d: %v", strat, round, r, err)
				}
			}
			if !bytes.Equal(results[0].Encode(), want.Encode()) {
				t.Fatalf("%v round %d: result differs from reference", strat, round)
			}
			// Sanity: the result must stay stable after more pool traffic.
			snap := results[0].Encode()
			scratch := render.GetImage(w, h)
			render.PutImage(scratch)
			if !bytes.Equal(results[0].Encode(), snap) {
				t.Fatalf("%v round %d: result mutated by pool reuse", strat, round)
			}
		}
	}
}
