package catalyst

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"image"
	"image/color"
	"image/png"
	"math"
	"math/rand"
	"sync"
	"testing"

	"colza/internal/core"
	"colza/internal/minimpi"
	"colza/internal/render"
	"colza/internal/sim"
	"colza/internal/vtk"
)

// Hashes of what the iso pipeline produced (go1.24, linux/amd64). The
// framebuffer hash was recorded at commit eb8b19a, before the extraction
// kernel or the rasterizer were touched: a mismatch means the pixels are
// no longer the parent's, bit for bit. The PNG hash pins the encoding of
// those pixels, which the test first proves by decoding the PNG back to
// the composited framebuffer. It depends on Image.PNG's writer (its chunk
// layout, row filter and deflate level) and on the standard library's
// deflate. Re-record it only after that decode-back check passes, and only
// when one of those two changes — as when the writer went to filter type 0
// and one IDAT — never to make a kernel change pass.
const (
	goldenIsoPNG         = "77499b09f34f46a9fcaab9173c2aefa7139a3392c55e29e1ec86a6ff12b22dc3"
	goldenIsoFramebuffer = "e820e69ac837a4e40189318248663ae37dc3074a58f4b0803811d41fd597197f"
)

// The same pair at the benchmark's iso shape (benchSlabs, benchConfig),
// the framebuffer recorded at commit 3af247a (go1.24, linux/amd64) before
// the pixel-centre box and the clip-side voxel skip; the same rules apply.
const (
	goldenBenchIsoPNG         = "1e18df1e8d0b763f456ec78ba8a4a7d78475e58c88a047f8ebe0a3e55f0257bd"
	goldenBenchIsoFramebuffer = "33dfe96110efa73f118c1249fc5de3fce7234d5b33b7fb0df5f6f5b443b71ad4"
)

// The same pair for the volume pipeline at the benchmark's DWI shape
// (benchDWI, benchVolumeConfig; go1.24, linux/amd64), recorded when the
// splat became a sum of integer terms; the same rules apply.
const (
	goldenBenchVolumePNG         = "73e9ad1a9d9652ef0ed2a1560780532ab14d09269911dab21a297a0a3c2f814a"
	goldenBenchVolumeFramebuffer = "3c140549c866b1355f8104938ec5bc84e914f6bf6710712ce372ece5300c3d92"
)

// goldenSlabs cuts a fixed Gray-Scott state into four z-slabs that share
// their boundary planes, the way the benchmark stages it.
func goldenSlabs(t *testing.T) []*vtk.ImageData {
	t.Helper()
	gs := sim.NewGrayScott(nil, [3]int{24, 24, 24}, sim.DefaultGrayScott())
	if err := gs.Step(120); err != nil {
		t.Fatal(err)
	}
	return zSlabs(gs.Block(), 4)
}

// benchSlabs is a Gray-Scott state cut the way the benchmark's iso workload
// cuts its 64^3 domain (spin-up 200, slabs four planes thick), at 32^3 so
// the test stays well under a second.
func benchSlabs(t *testing.T) []*vtk.ImageData {
	t.Helper()
	p := sim.DefaultGrayScott()
	p.Seed = 1
	gs := sim.NewGrayScott(nil, [3]int{32, 32, 32}, p)
	if err := gs.Step(200); err != nil {
		t.Fatal(err)
	}
	return zSlabs(gs.Block(), 8)
}

// zSlabs splits img into n slabs along z; neighbours share one plane.
func zSlabs(img *vtk.ImageData, n int) []*vtk.ImageData {
	per := img.Dims[2] / n
	plane := img.Dims[0] * img.Dims[1]
	var out []*vtk.ImageData
	for s := 0; s < n; s++ {
		z0, z1 := s*per, (s+1)*per
		if s == n-1 {
			z1 = img.Dims[2] - 1
		}
		origin := img.Origin
		origin[2] += float64(z0) * img.Spacing[2]
		blk := vtk.NewImageData([3]int{img.Dims[0], img.Dims[1], z1 - z0 + 1}, origin, img.Spacing)
		for _, a := range img.PointData {
			dst := blk.AddPointArray(a.Name, a.Components)
			copy(dst.Data, a.Data[z0*plane*a.Components:(z1+1)*plane*a.Components])
		}
		out = append(out, blk)
	}
	return out
}

func goldenConfig() IsoConfig {
	return IsoConfig{
		Field: "V", IsoValues: []float64{0.1, 0.2, 0.3}, Width: 96, Height: 96,
		ScalarRange: [2]float64{0, 0.5}, Strategy: "tree",
		Clip: &ClipSpec{Normal: [3]float64{1, 0, 0}, Offset: 12},
	}
}

// benchConfig is the benchmark's iso configuration: three levels, the
// clip plane through the middle of the domain, coolwarm, 256x256.
func benchConfig() IsoConfig {
	return IsoConfig{
		Field: "V", IsoValues: []float64{0.1, 0.2, 0.3}, Width: 256, Height: 256,
		ScalarRange: [2]float64{0, 0.5}, ColorMap: "coolwarm", Strategy: "tree",
		Clip: &ClipSpec{Normal: [3]float64{1, 0, 0}, Offset: 16},
	}
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestGoldenIsoOutput pins the iso pipeline's pixels: the rank-0 PNG of a
// two-rank tree composite, which must decode to the composited
// framebuffer, and the local framebuffer (colour and depth) a single rank
// renders from the same blocks. The small case splits its slabs
// into contiguous halves; the benchmark-shaped one places them by block id
// modulo the rank count, as the client's default placement does.
func TestGoldenIsoOutput(t *testing.T) {
	for _, c := range []struct {
		name          string
		slabs         []*vtk.ImageData
		cfg           IsoConfig
		place         func(block int) int
		wantPNG, want string
	}{
		{"96x96", goldenSlabs(t), goldenConfig(), func(b int) int { return b / 2 }, goldenIsoPNG, goldenIsoFramebuffer},
		{"benchmark shape", benchSlabs(t), benchConfig(), func(b int) int { return b % 2 }, goldenBenchIsoPNG, goldenBenchIsoFramebuffer},
	} {
		t.Run(c.name, func(t *testing.T) {
			ranks := make([][]*vtk.ImageData, 2)
			for b, s := range c.slabs {
				ranks[c.place(b)] = append(ranks[c.place(b)], s)
			}
			root, tris := renderOnRanks(t, ranks, c.cfg)
			checkPNG(t, root, c.wantPNG)

			solo := minimpi.World(1)
			defer solo[0].Finalize()
			st, fb, err := ExecuteIso(vtk.NewController("mpi", solo[0]), c.slabs, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.LocalTriangles == 0 || st.LocalTriangles != tris {
				t.Errorf("single rank extracted %d triangles, two ranks %d", st.LocalTriangles, tris)
			}
			if fb.CoveredPixels() == 0 {
				t.Error("local framebuffer is empty")
			}
			if got := sha(fb.Encode()); got != c.want {
				t.Errorf("local framebuffer hash %s, want %s", got, c.want)
			}
		})
	}
}

// checkPNG requires root's PNG to decode back to root's colour plane and
// to hash to want.
func checkPNG(t *testing.T, root *render.Image, want string) {
	t.Helper()
	enc, err := root.PNG()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := png.Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bounds() != image.Rect(0, 0, root.W, root.H) {
		t.Fatalf("rank-0 PNG is %v, the framebuffer %dx%d", dec.Bounds(), root.W, root.H)
	}
	for i := 0; i < root.W*root.H; i++ {
		c := color.NRGBAModel.Convert(dec.At(i%root.W, i/root.W)).(color.NRGBA)
		if !bytes.Equal([]byte{c.R, c.G, c.B, c.A}, root.RGBA[4*i:4*i+4]) {
			t.Fatalf("rank-0 PNG pixel %d decodes to %v, the composited framebuffer holds %v", i, c, root.RGBA[4*i:4*i+4])
		}
	}
	if got := sha(enc); got != want {
		t.Errorf("rank-0 PNG hash %s, want %s", got, want)
	}
}

// TestGoldenIsoImageIndependentOfRanks renders both golden block sets on
// every layout of eachLayout and requires the composited framebuffer,
// colour and depth, to be the single-rank one bit for bit: the picture is
// a function of the blocks, not of how many servers draw it or which
// draws what.
func TestGoldenIsoImageIndependentOfRanks(t *testing.T) {
	for _, c := range []struct {
		name  string
		slabs []*vtk.ImageData
		cfg   IsoConfig
	}{
		{"96x96", goldenSlabs(t), goldenConfig()},
		{"benchmark shape", benchSlabs(t), benchConfig()},
	} {
		t.Run(c.name, func(t *testing.T) {
			var want []byte
			eachLayout(c.slabs, func(n int, layout string, ranks [][]*vtk.ImageData) {
				fb, _ := renderOnRanks(t, ranks, c.cfg)
				got := fb.Encode()
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Fatalf("%d ranks, %s placement: the framebuffer differs from the single-rank one", n, layout)
				}
			})
		})
	}
}

// eachLayout calls f with blocks spread over 1–5 ranks three ways: by
// core.DefaultPlacement, by a seeded random placement, and by
// DefaultPlacement with each rank's staging order shuffled.
func eachLayout[B any](blocks []B, f func(n int, layout string, ranks [][]B)) {
	rng := rand.New(rand.NewSource(41))
	for n := 1; n <= 5; n++ {
		for _, layout := range []string{"default", "random", "shuffled"} {
			ranks := make([][]B, n)
			for b, blk := range blocks {
				r := core.DefaultPlacement(core.BlockMeta{BlockID: b}, n)
				if layout == "random" {
					r = rng.Intn(n)
				}
				ranks[r] = append(ranks[r], blk)
			}
			if layout == "shuffled" {
				for _, blks := range ranks {
					rng.Shuffle(len(blks), func(i, j int) { blks[i], blks[j] = blks[j], blks[i] })
				}
			}
			f(n, layout, ranks)
		}
	}
}

// renderOnRanks runs ExecuteIso with ranks[r] on rank r of a minimpi
// world and returns the image composited at rank 0 and the triangles the
// ranks extracted.
func renderOnRanks(t *testing.T, ranks [][]*vtk.ImageData, cfg IsoConfig) (*render.Image, int) {
	t.Helper()
	root, st := executeOnRanks(t, ranks, func(ctrl *vtk.Controller, blocks []*vtk.ImageData) (Stats, *render.Image, error) {
		return ExecuteIso(ctrl, blocks, cfg)
	})
	return root, st.LocalTriangles
}

// executeOnRanks runs exec with ranks[r] on rank r of a minimpi world and
// returns the image composited at rank 0 and the ranks' summed counts.
func executeOnRanks[B any](t *testing.T, ranks [][]B, exec func(*vtk.Controller, []B) (Stats, *render.Image, error)) (*render.Image, Stats) {
	t.Helper()
	world := minimpi.World(len(ranks))
	defer world[0].Finalize()
	var root *render.Image
	sts := make([]Stats, len(ranks))
	errs := make([]error, len(ranks))
	var wg sync.WaitGroup
	for r := range ranks {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var img *render.Image
			sts[r], img, errs[r] = exec(vtk.NewController("mpi", world[r]), ranks[r])
			if r == 0 {
				root = img
			}
		}(r)
	}
	wg.Wait()
	var total Stats
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		total.LocalCells += sts[r].LocalCells
		total.LocalTriangles += sts[r].LocalTriangles
	}
	return root, total
}

// benchDWI is the benchmark's DWI staging: the four blocks of growth step
// 14, 111,684 cells.
var benchDWI = sync.OnceValue(func() []*vtk.UnstructuredGrid {
	cfg := sim.DWIConfig{Blocks: 4, Iterations: 30, BaseRes: 96, GrowthRes: 2}
	grids := make([]*vtk.UnstructuredGrid, cfg.Blocks)
	for b := range grids {
		grids[b] = sim.DWIIterationBlock(cfg, 14, b)
	}
	return grids
})

// benchVolumeConfig is the benchmark's volume configuration: 256x256,
// coolwarm, splats of radius 3.
func benchVolumeConfig() VolumeConfig {
	return VolumeConfig{Field: "velocity", Width: 256, Height: 256, ScalarRange: [2]float64{0, 2}, PointSize: 3}
}

// volumeOnRanks runs ExecuteVolume with ranks[r] on rank r of a minimpi
// world and returns the image resolved at rank 0 and the cells the ranks
// splatted.
func volumeOnRanks(t *testing.T, ranks [][]*vtk.UnstructuredGrid, cfg VolumeConfig) (*render.Image, int) {
	t.Helper()
	root, st := executeOnRanks(t, ranks, func(ctrl *vtk.Controller, grids []*vtk.UnstructuredGrid) (Stats, *render.Image, error) {
		return ExecuteVolume(ctrl, grids, cfg)
	})
	return root, st.LocalCells
}

// TestGoldenVolumeOutput pins the volume pipeline's pixels at the
// benchmark's DWI shape: the rank-0 PNG of two ranks under
// DefaultPlacement, which must decode to the resolved framebuffer, and
// the framebuffer one rank resolves from all four blocks.
func TestGoldenVolumeOutput(t *testing.T) {
	grids := benchDWI()
	root, cells := volumeOnRanks(t, [][]*vtk.UnstructuredGrid{{grids[0], grids[2]}, {grids[1], grids[3]}}, benchVolumeConfig())
	if cells != 111684 {
		t.Fatalf("two ranks splatted %d cells, want 111684", cells)
	}
	checkPNG(t, root, goldenBenchVolumePNG)
	solo, _ := volumeOnRanks(t, [][]*vtk.UnstructuredGrid{grids}, benchVolumeConfig())
	if got := sha(solo.Encode()); got != goldenBenchVolumeFramebuffer {
		t.Errorf("single-rank framebuffer hash %s, want %s", got, goldenBenchVolumeFramebuffer)
	}
}

// TestGoldenVolumeImageIndependentOfRanks renders the benchmark's DWI
// shape on every layout of eachLayout and requires the framebuffer
// resolved at rank 0 to be the single-rank one bit for bit, so resizing
// the staging area under the volume pipeline does not change its picture.
func TestGoldenVolumeImageIndependentOfRanks(t *testing.T) {
	var want []byte
	eachLayout(benchDWI(), func(n int, layout string, ranks [][]*vtk.UnstructuredGrid) {
		fb, cells := volumeOnRanks(t, ranks, benchVolumeConfig())
		if cells != 111684 {
			t.Fatalf("%d ranks, %s placement: %d cells splatted, want 111684", n, layout, cells)
		}
		got := fb.Encode()
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("%d ranks, %s placement: the framebuffer differs from the single-rank one", n, layout)
		}
	})
}

// TestVolumeMisSizedContributionFailsAtRoot: one rank rendering at another
// width — narrower or wider — fails the composite at the root with
// render.ErrImage wherever it enters the reduction (a leaf folding straight
// into the root, one folding through an intermediate rank, or the root's
// own), and no other rank sees an error.
func TestVolumeMisSizedContributionFailsAtRoot(t *testing.T) {
	grids := benchDWI()[:1]
	cfg := VolumeConfig{Field: "velocity", Width: 32, Height: 32, ScalarRange: [2]float64{0, 2}}
	for _, width := range []int{24, 40} {
		for _, n := range []int{3, 5} {
			for badRank := 0; badRank < n; badRank++ {
				world := minimpi.World(n)
				imgs := make([]*render.Image, n)
				errs := make([]error, n)
				var wg sync.WaitGroup
				for r := 0; r < n; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						c := cfg
						if r == badRank {
							c.Width = width
						}
						_, imgs[r], errs[r] = ExecuteVolume(vtk.NewController("mpi", world[r]), grids, c)
					}(r)
				}
				wg.Wait()
				world[0].Finalize()
				if !errors.Is(errs[0], render.ErrImage) || imgs[0] != nil {
					t.Errorf("width %d at rank %d of %d: root got (%v, %v), want render.ErrImage", width, badRank, n, imgs[0] != nil, errs[0])
				}
				for r := 1; r < n; r++ {
					if errs[r] != nil || imgs[r] != nil {
						t.Errorf("width %d at rank %d of %d: rank %d got (%v, %v)", width, badRank, n, r, imgs[r] != nil, errs[r])
					}
				}
			}
		}
	}
}

// TestGoldenIsoSurvivesNaNAndInf runs the golden blocks on one rank with
// NaN, +Inf and -Inf planted through the contoured field: one garbage
// block must come back as an iteration, not as an execute error or a
// panic on the server.
func TestGoldenIsoSurvivesNaNAndInf(t *testing.T) {
	slabs := goldenSlabs(t)
	poisoned := slabs[1]
	field, err := poisoned.PointArray("V")
	if err != nil {
		t.Fatal(err)
	}
	garbage := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := 0; i < len(field.Data); i += 7 {
		field.Data[i] = garbage[(i/7)%len(garbage)]
	}
	world := minimpi.World(1)
	defer world[0].Finalize()
	st, img, err := ExecuteIso(vtk.NewController("mpi", world[0]), slabs, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalTriangles == 0 || img == nil || img.CoveredPixels() == 0 {
		t.Fatalf("nothing rendered around the garbage block: %d triangles", st.LocalTriangles)
	}
}
