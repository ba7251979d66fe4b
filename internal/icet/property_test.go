package icet

import (
	"math"
	"testing"
	"testing/quick"

	"colza/internal/render"
)

// referenceComposite is the trivially correct sequential depth composite:
// for each pixel take the fragment with the smallest depth across ranks.
// The frames below have distinct depths, so no tie rule enters.
func referenceComposite(imgs []*render.Image) *render.Image {
	out := render.NewImage(imgs[0].W, imgs[0].H)
	for _, im := range imgs {
		for i := range im.Depth {
			if im.Depth[i] < out.Depth[i] {
				out.Depth[i] = im.Depth[i]
				copy(out.RGBA[4*i:4*i+4], im.RGBA[4*i:4*i+4])
			}
		}
	}
	return out
}

// Property: for random fragment patterns and group sizes, the
// distributed composite agrees with the sequential reference.
func TestQuickCompositeMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%6) + 2
		const w, h = 12, 6
		imgs := make([]*render.Image, n)
		s := uint64(seed)
		next := func() uint64 {
			s = s*6364136223846793005 + 1442695040888963407
			return s
		}
		for r := 0; r < n; r++ {
			im := render.NewImage(w, h)
			for p := 0; p < 20; p++ {
				v := next()
				i := int(v % uint64(w*h))
				// Distinct depths everywhere so tie-breaking cannot differ.
				d := float32(v%100000)/100000 + float32(r)*1e-6
				if d < im.Depth[i] {
					im.Depth[i] = d
					o := 4 * i
					im.RGBA[o] = uint8(v >> 32)
					im.RGBA[o+1] = uint8(v >> 40)
					im.RGBA[o+2] = uint8(r)
					im.RGBA[o+3] = 255
				}
			}
			imgs[r] = im
		}
		want := referenceComposite(imgs)
		got := runCompositeQuick(t, imgs)
		if got == nil {
			return false
		}
		for i := range want.RGBA {
			if got.RGBA[i] != want.RGBA[i] {
				return false
			}
		}
		for i := range want.Depth {
			a, b := got.Depth[i], want.Depth[i]
			if a != b && !(math.IsInf(float64(a), 1) && math.IsInf(float64(b), 1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func runCompositeQuick(t *testing.T, imgs []*render.Image) *render.Image {
	t.Helper()
	n := len(imgs)
	return runComposite(t, n, Depth, 0, func(rank int) *render.Image {
		im := render.NewImage(imgs[rank].W, imgs[rank].H)
		copy(im.RGBA, imgs[rank].RGBA)
		copy(im.Depth, imgs[rank].Depth)
		return im
	})
}
