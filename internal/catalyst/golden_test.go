package catalyst

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"testing"

	"colza/internal/minimpi"
	"colza/internal/render"
	"colza/internal/sim"
	"colza/internal/vtk"
)

// Hashes of what the iso pipeline produced at commit eb8b19a (go1.24,
// linux/amd64), recorded before the extraction kernel, the rasterizer or
// the PNG path were touched. A mismatch means the output is no longer the
// parent's, bit for bit. The PNG hash also depends on the standard
// library's deflate: re-record it (from this commit's parent) when the Go
// version in go.mod's toolchain changes it, never to make a kernel change
// pass.
const (
	goldenIsoPNG         = "d2d52d6da17e42d7c598bcef5a60e89336493eeaa9ff2611caa312e085d9f8e9"
	goldenIsoFramebuffer = "e820e69ac837a4e40189318248663ae37dc3074a58f4b0803811d41fd597197f"
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

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestGoldenIsoOutput pins the iso pipeline's pixels: the rank-0 PNG of a
// two-rank tree composite, and the local framebuffer (colour and depth) a
// single rank renders from the same blocks.
func TestGoldenIsoOutput(t *testing.T) {
	slabs := goldenSlabs(t)

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
			st, img, err := ExecuteIso(vtk.NewController("mpi", world[r]), slabs[2*r:2*r+2], goldenConfig())
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
	png, err := root.PNG()
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(png); got != goldenIsoPNG {
		t.Errorf("rank-0 PNG hash %s, want %s", got, goldenIsoPNG)
	}

	solo := minimpi.World(1)
	defer solo[0].Finalize()
	st, fb, err := ExecuteIso(vtk.NewController("mpi", solo[0]), slabs, goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalTriangles == 0 || st.LocalTriangles != tris[0]+tris[1] {
		t.Errorf("single rank extracted %d triangles, two ranks %d+%d", st.LocalTriangles, tris[0], tris[1])
	}
	if fb.CoveredPixels() == 0 {
		t.Error("local framebuffer is empty")
	}
	if got := sha(fb.Encode()); got != goldenIsoFramebuffer {
		t.Errorf("local framebuffer hash %s, want %s", got, goldenIsoFramebuffer)
	}
}
