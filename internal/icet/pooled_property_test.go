package icet

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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
// reduction's fold order (root 0) over fresh images. Ordered "over"
// blending with uint8 quantization is not associative, so a plain
// sequential fold would diverge from the tree at n >= 4 even though both
// are "correct" blends; byte-identity only holds against the same fold
// shape. The Depth merge is order-free, so any fold gives its bytes.
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

// mergePixels merges src into dst on decoded images, the reference for
// mergeEncoded. Depth keeps the pixel whose depth orders first by
// depthOrder and, on equal depth bits, the one whose RGBA word is smaller;
// ordered blends dst over src, i.e. src is behind dst.
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
			o := 4 * i
			ord := depthOrder(src.Depth[i], dst.Depth[i])
			if ord < 0 || ord == 0 && binary.LittleEndian.Uint32(src.RGBA[o:]) < binary.LittleEndian.Uint32(dst.RGBA[o:]) {
				dst.Depth[i] = src.Depth[i]
				copy(dst.RGBA[o:o+4], src.RGBA[o:o+4])
			}
		}
	}
}

// depthOrder is the Depth composite's order of two depths, from float
// comparisons: -1 if a goes first, 1 if b does, 0 if their bits are
// equal. Numbers go in numeric order, −0 before +0; every NaN goes after
// +Inf, and two NaNs in the order of their bits.
func depthOrder(a, b float32) int {
	ab, bb := math.Float32bits(a), math.Float32bits(b)
	switch an, bn := a != a, b != b; {
	case an && bn:
		return cmp.Compare(ab, bb)
	case an:
		return 1
	case bn:
		return -1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return cmp.Compare(bb, ab) // equal numbers: the same bits, or −0 and +0
}

// plantDepths overwrites some of im's pixels with the depths that decide
// ties: a shared 0.5 (tied across frames, with colours that differ), ±0,
// −Inf, and NaNs of both signs and two payloads; some get RGBA bytes that
// exceed their alpha, so the ordered blend clamps.
func plantDepths(rng *rand.Rand, im *render.Image) {
	specials := []float32{
		0.5, 0, float32(math.Copysign(0, -1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc00000),
	}
	for i := range im.Depth {
		switch k := rng.Intn(2 * len(specials)); {
		case k < len(specials):
			im.Depth[i] = specials[k]
		case k == len(specials):
			rng.Read(im.RGBA[4*i : 4*i+4])
		}
	}
}

// TestDepthMergeCommutesAndAssociates: on random frames with tied, ±0,
// NaN and −Inf depths, mergeEncoded's Depth merge is commutative and
// associative and gives mergePixels' bytes; its Ordered merge, in the
// binomial reduction's fold order, gives mergePixels' bytes too. And
// Composite on 1–8 ranks gives the same bits under any permutation of the
// frames to ranks and any root.
func TestDepthMergeCommutesAndAssociates(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	merged := func(a, b []byte) []byte {
		acc := bytes.Clone(a)
		mergeEncoded(acc, b, Depth)
		return acc
	}
	for trial := 0; trial < 40; trial++ {
		w, h := 1+rng.Intn(24), 1+rng.Intn(24)
		imgs := make([]*render.Image, 3)
		enc := make([][]byte, 3)
		for i := range imgs {
			imgs[i] = randomImage(rng, w, h)
			plantDepths(rng, imgs[i])
			enc[i] = imgs[i].Encode()
		}
		a, b, c := enc[0], enc[1], enc[2]
		if !bytes.Equal(merged(a, b), merged(b, a)) {
			t.Fatalf("trial %d, %dx%d: a·b differs from b·a", trial, w, h)
		}
		if !bytes.Equal(merged(merged(a, b), c), merged(a, merged(b, c))) {
			t.Fatalf("trial %d, %dx%d: (a·b)·c differs from a·(b·c)", trial, w, h)
		}
		if want := referenceCompositeMode(imgs, Depth).Encode(); !bytes.Equal(merged(merged(a, b), c), want) {
			t.Fatalf("trial %d, %dx%d: the in-place Depth merge differs from mergePixels", trial, w, h)
		}
	}
	for trial := 0; trial < 20; trial++ {
		for n := 1; n <= 5; n++ {
			w, h := 1+rng.Intn(40), 1+rng.Intn(40)
			imgs := make([]*render.Image, n)
			enc := make([][]byte, n)
			for r := range imgs {
				imgs[r] = randomImage(rng, w, h)
				plantDepths(rng, imgs[r])
				enc[r] = imgs[r].Encode()
			}
			want := referenceCompositeMode(imgs, Ordered).Encode()
			for mask := 1; mask < n; mask <<= 1 {
				for r := 0; r < n; r++ {
					if r&mask == 0 && r|mask < n {
						mergeEncoded(enc[r], enc[r|mask], Ordered)
					}
				}
			}
			if !bytes.Equal(enc[0], want) {
				t.Fatalf("trial %d, %d ranks of %dx%d: the in-place Ordered fold differs from mergePixels", trial, n, w, h)
			}
		}
	}
	for n := 1; n <= 8; n++ {
		const w, h = 11, 7
		frames := make([]*render.Image, n)
		for i := range frames {
			frames[i] = randomImage(rng, w, h)
			plantDepths(rng, frames[i])
		}
		want := referenceCompositeMode(frames, Depth).Encode()
		for root := 0; root < n; root++ {
			perm := rng.Perm(n)
			world := minimpi.World(n)
			outs, errs := compositeAll(world, Depth, root, func(r int) *render.Image { return frames[perm[r]] })
			world[0].Finalize()
			if errs[root] != nil {
				t.Fatalf("%d ranks, root %d: %v", n, root, errs[root])
			}
			if !bytes.Equal(outs[root].Encode(), want) {
				t.Fatalf("%d ranks, root %d, frames placed %v: the composite's bits depend on placement or root", n, root, perm)
			}
		}
	}
}

// TestMergeEncodedLeavesMalformedFrames: a fold with a frame that is not
// one (short, a zero or oversized side, a length off by one) or of another
// size leaves the accumulator's planes as they were and its header one
// that no decoder accepts, and a fold of that accumulator into a good one
// spoils the good one's header in turn: the bad frame reaches the root.
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
			if len(acc) >= 8 && !bytes.Equal(acc[8:], c[0][8:]) {
				t.Errorf("%s, %v: the accumulator's planes changed", name, mode)
			}
			if _, err := render.DecodeImage(acc); err == nil {
				t.Errorf("%s, %v: the accumulator still decodes", name, mode)
			}
			good := bytes.Clone(frame)
			mergeEncoded(good, acc, mode)
			if _, err := render.DecodeImage(good); err == nil {
				t.Errorf("%s, %v: a fold of the spoilt accumulator left a frame that decodes", name, mode)
			}
		}
	}
}

// TestPooledCompositeMatchesReference: the composite, with its pooled
// contribution frame, must be byte-identical to the unpooled reference at
// every size 1..8, for both blend modes, and land in the root's own
// framebuffer, leaving every other rank's input as it was. Run under
// -race this also catches aliasing between pooled frames and data still
// in flight.
func TestPooledCompositeMatchesReference(t *testing.T) {
	const w, h = 19, 13
	for _, mode := range []Mode{Depth, Ordered} {
		for n := 1; n <= 8; n++ {
			t.Run(fmt.Sprintf("tree/%v/ranks=%d", mode, n), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*int(mode) + n)))
				imgs := make([]*render.Image, n)
				for r := range imgs {
					imgs[r] = randomImage(rng, w, h)
				}
				// Keep pristine copies: Composite writes only the root's input.
				inputs := make([][]byte, n)
				for r := range imgs {
					inputs[r] = imgs[r].Encode()
				}
				want := referenceCompositeMode(imgs, mode)

				world := minimpi.World(n)
				results, errs := compositeAll(world, mode, 0, func(r int) *render.Image { return imgs[r] })
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}
				if results[0] != imgs[0] {
					t.Fatal("the root's result is not its own framebuffer")
				}
				if !bytes.Equal(results[0].Encode(), want.Encode()) {
					t.Fatal("pooled composite differs from unpooled reference")
				}
				for r := 1; r < n; r++ {
					if results[r] != nil {
						t.Fatalf("rank %d returned an image; only root should", r)
					}
				}
				for r := 1; r < n; r++ {
					if !bytes.Equal(imgs[r].Encode(), inputs[r]) {
						t.Fatalf("Composite mutated rank %d's input image", r)
					}
				}
			})
		}
	}
}

// TestPooledCompositeRepeatedRounds runs many composites back to back so
// pooled frames from round k are recycled into round k+1; any retained
// alias (a result decoded over a pooled frame, say) would corrupt an
// earlier round's result.
func TestPooledCompositeRepeatedRounds(t *testing.T) {
	const w, h, n, rounds = 16, 16, 4, 12
	rng := rand.New(rand.NewSource(42))
	world := minimpi.World(n)
	var kept []*render.Image
	var snaps [][]byte
	for round := 0; round < rounds; round++ {
		imgs := make([]*render.Image, n)
		for r := range imgs {
			imgs[r] = randomImage(rng, w, h)
		}
		want := referenceCompositeMode(imgs, Depth)
		results, errs := compositeAll(world, Depth, 0, func(r int) *render.Image { return imgs[r] })
		for r, err := range errs {
			if err != nil {
				t.Fatalf("round %d rank %d: %v", round, r, err)
			}
		}
		if !bytes.Equal(results[0].Encode(), want.Encode()) {
			t.Fatalf("round %d: result differs from reference", round)
		}
		kept, snaps = append(kept, results[0]), append(snaps, want.Encode())
	}
	for round, res := range kept {
		if !bytes.Equal(res.Encode(), snaps[round]) {
			t.Fatalf("round %d: result mutated by later rounds", round)
		}
	}
}
