package icet

import (
	"errors"
	"fmt"
	"testing"

	"colza/internal/minimpi"
	"colza/internal/render"
)

// Table-driven edge cases at the odd staging-area sizes elastic rescaling
// produces: 1, 3, 5, 7 ranks, both modes, roots at every boundary, and
// contributions the reduction cannot merge.

func TestEdgeCompositeOddSizesAllStrategiesModes(t *testing.T) {
	const w, h = 14, 6
	sizes := []int{1, 3, 5, 7}
	for _, mode := range []Mode{Depth, Ordered} {
		for _, n := range sizes {
			for _, root := range []int{0, n - 1} {
				name := fmt.Sprintf("%d/n=%d/root=%d", mode, n, root)
				res := runComposite(t, n, mode, root, func(rank int) *render.Image {
					im := render.NewImage(w, h)
					// Each rank paints two columns with an opaque marker
					// color; disjoint regions make depth and ordered
					// compositing agree on the expected output.
					x0 := (rank * 2) % w
					paint(im, x0, x0+2, 0.5, uint8(50+rank), 77, 0)
					return im
				})
				if res.W != w || res.H != h {
					t.Fatalf("%s: result %dx%d", name, res.W, res.H)
				}
				for r := 0; r < n; r++ {
					x := (r*2)%w + 1
					cr, cg, _, _ := res.At(x, h/2)
					if cr != uint8(50+r) || cg != 77 {
						t.Fatalf("%s: rank %d region has (%d,%d), want (%d,77)",
							name, r, cr, cg, 50+r)
					}
				}
			}
		}
	}
}

func TestEdgeSingleRankAllStrategiesReturnInput(t *testing.T) {
	for _, mode := range []Mode{Depth, Ordered} {
		res := runComposite(t, 1, mode, 0, func(rank int) *render.Image {
			im := render.NewImage(5, 5)
			paint(im, 0, 5, 0.1, 200, 100, 50)
			return im
		})
		cr, cg, cb, _ := res.At(2, 2)
		if cr != 200 || cg != 100 || cb != 50 {
			t.Fatalf("mode=%d: single-rank composite altered pixels (%d,%d,%d)",
				mode, cr, cg, cb)
		}
	}
}

func TestEdgeOrderedOddSizesMatchSequentialBlend(t *testing.T) {
	// Every rank contributes a half-transparent full-frame layer; the
	// expected pixel is the sequential front-to-back over-blend in rank
	// order, up to one rounding step per merge.
	const w, h = 4, 4
	// Channel values stay <= alpha (valid premultiplied colors), so the
	// 255-clamp never fires and blending is associative up to rounding.
	layer := func(rank int) (rgba [4]uint8) {
		return [4]uint8{uint8(10 * rank), uint8(90 - 12*rank), 30, 90}
	}
	for _, n := range []int{3, 5, 7} {
		res := runComposite(t, n, Ordered, 0, func(rank int) *render.Image {
			im := render.NewImage(w, h)
			l := layer(rank)
			for i := 0; i < w*h; i++ {
				o := 4 * i
				copy(im.RGBA[o:o+4], l[:])
				im.Depth[i] = float32(rank) / 10
			}
			return im
		})
		// Sequential reference: front-to-back accumulation.
		var acc [4]float64
		for r := 0; r < n; r++ {
			l := layer(r)
			t1 := 1 - acc[3]/255
			for k := 0; k < 4; k++ {
				acc[k] += t1 * float64(l[k])
				if acc[k] > 255 {
					acc[k] = 255
				}
			}
		}
		cr, cg, cb, ca := res.At(1, 1)
		got := [4]int{int(cr), int(cg), int(cb), int(ca)}
		for k := 0; k < 4; k++ {
			d := got[k] - int(acc[k])
			if d < -n || d > n { // one rounding step per merge
				t.Fatalf("n=%d channel %d: got %d want ~%.0f", n, k, got[k], acc[k])
			}
		}
	}
}

// TestEdgeUnknownStrategyRefused: tree reduce is the only strategy, and
// any other value is an error on every rank, before any message is sent.
func TestEdgeUnknownStrategyRefused(t *testing.T) {
	for _, n := range []int{1, 2} {
		world := minimpi.World(n)
		for r := 0; r < n; r++ {
			if out, err := Composite(render.NewImage(2, 2), world[r], Strategy(1), Depth, 0); err == nil || out != nil {
				t.Fatalf("n=%d rank %d: Strategy(1) gave (%v, %v), want an error", n, r, out, err)
			}
		}
		world[0].Finalize()
	}
}

// TestEdgeMisSizedContributionFailsAtRoot: one rank's frame of another
// size, or one whose planes do not fill its size, fails the composite at
// root with render.ErrImage, wherever it enters the reduction: a leaf
// folding straight into the root, one folding through an intermediate
// rank (rank 3 of 5 folds into rank 2 first), or the root's own.
func TestEdgeMisSizedContributionFailsAtRoot(t *testing.T) {
	const w, h = 8, 8
	bad := map[string]func() *render.Image{
		"4x8": func() *render.Image { return render.NewImage(4, 8) },
		"short planes": func() *render.Image {
			im := render.NewImage(w, h)
			im.RGBA, im.Depth = im.RGBA[:4*w*h-4], im.Depth[:w*h-1]
			return im
		},
	}
	for name, mk := range bad {
		for _, mode := range []Mode{Depth, Ordered} {
			for _, n := range []int{3, 5} {
				for badRank := 0; badRank < n; badRank++ {
					world := minimpi.World(n)
					outs, errs := compositeAll(world, mode, 0, func(r int) *render.Image {
						if r == badRank {
							return mk()
						}
						im := render.NewImage(w, h)
						paint(im, r, r+1, 0.5, uint8(10+r), 1, 1)
						return im
					})
					world[0].Finalize()
					if !errors.Is(errs[0], render.ErrImage) || outs[0] != nil {
						t.Errorf("%s, mode %d, %d ranks, rank %d bad: root got (%v, %v), want render.ErrImage",
							name, mode, n, badRank, outs[0] != nil, errs[0])
					}
					for r := 1; r < n; r++ {
						if errs[r] != nil || outs[r] != nil {
							t.Errorf("%s, mode %d, %d ranks: rank %d got (%v, %v)", name, mode, n, r, outs[r] != nil, errs[r])
						}
					}
				}
			}
		}
	}
}
