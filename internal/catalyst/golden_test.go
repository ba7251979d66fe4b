package catalyst

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"image"
	"image/color"
	"image/png"
	"math"
	"sync"
	"testing"

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
			var ranks [2][]*vtk.ImageData
			for b, s := range c.slabs {
				ranks[c.place(b)] = append(ranks[c.place(b)], s)
			}
			world := minimpi.World(2)
			defer world[0].Finalize()
			var wg sync.WaitGroup
			var root *render.Image
			var tris [2]int
			errs := make([]error, 2)
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					st, img, err := ExecuteIso(vtk.NewController("mpi", world[r]), ranks[r], c.cfg)
					errs[r], tris[r] = err, st.LocalTriangles
					if r == 0 {
						root = img
					}
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
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
			if got := sha(enc); got != c.wantPNG {
				t.Errorf("rank-0 PNG hash %s, want %s", got, c.wantPNG)
			}

			solo := minimpi.World(1)
			defer solo[0].Finalize()
			st, fb, err := ExecuteIso(vtk.NewController("mpi", solo[0]), c.slabs, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.LocalTriangles == 0 || st.LocalTriangles != tris[0]+tris[1] {
				t.Errorf("single rank extracted %d triangles, two ranks %d+%d", st.LocalTriangles, tris[0], tris[1])
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
