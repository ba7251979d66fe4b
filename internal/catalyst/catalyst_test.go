package catalyst

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/minimpi"
	"colza/internal/na"
	"colza/internal/render"
	"colza/internal/sim"
	"colza/internal/ssg"
	"colza/internal/vtk"
)

func init() { Register() }

// TestExecuteIsoStandaloneParallel runs the iso pipeline body directly on
// a mini-MPI world — the "MPI" arm of the paper's comparisons.
func TestExecuteIsoStandaloneParallel(t *testing.T) {
	cfg := sim.DefaultMandelbulb([3]int{24, 24, 12}, 4)
	world := minimpi.World(4)
	defer world[0].Finalize()
	var wg sync.WaitGroup
	var root *render.Image
	rootStats := make([]Stats, 4)
	errs := make([]error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			blk := sim.MandelbulbBlock(cfg, r, 1)
			ctrl := vtk.NewController("mpi", world[r])
			st, img, err := ExecuteIso(ctrl, []*vtk.ImageData{blk}, IsoConfig{
				Field: "value", IsoValues: []float64{8}, Width: 96, Height: 96,
				ScalarRange: [2]float64{0, 32},
			})
			errs[r] = err
			rootStats[r] = st
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
	if root == nil {
		t.Fatal("rank 0 got no composited image")
	}
	if root.CoveredPixels() == 0 {
		t.Fatal("composited image is empty")
	}
	totalTris := 0
	for _, st := range rootStats {
		totalTris += st.LocalTriangles
	}
	if totalTris == 0 {
		t.Fatal("no triangles extracted anywhere")
	}
}

func TestExecuteIsoWithClipAndMultipleLevels(t *testing.T) {
	world := minimpi.World(1)
	defer world[0].Finalize()
	gs := sim.NewGrayScott(nil, [3]int{20, 20, 20}, sim.DefaultGrayScott())
	if err := gs.Step(30); err != nil {
		t.Fatal(err)
	}
	ctrl := vtk.NewController("mpi", world[0])
	st, img, err := ExecuteIso(ctrl, []*vtk.ImageData{gs.Block()}, IsoConfig{
		Field: "U", IsoValues: []float64{0.3, 0.5, 0.7}, Width: 64, Height: 64,
		ScalarRange: [2]float64{0, 1},
		Clip:        &ClipSpec{Normal: [3]float64{1, 0, 0}, Offset: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.LocalTriangles == 0 {
		t.Fatal("no triangles after clip")
	}
	if img == nil || img.CoveredPixels() == 0 {
		t.Fatal("empty image")
	}
}

func TestExecuteVolumeStandalone(t *testing.T) {
	world := minimpi.World(2)
	defer world[0].Finalize()
	cfg := sim.DWIConfig{Blocks: 2, Iterations: 10, BaseRes: 16, GrowthRes: 1}
	var wg sync.WaitGroup
	var root *render.Image
	errs := make([]error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			g := sim.DWIIterationBlock(cfg, 6, r)
			ctrl := vtk.NewController("mpi", world[r])
			_, img, err := ExecuteVolume(ctrl, []*vtk.UnstructuredGrid{g}, VolumeConfig{
				Field: "velocity", Width: 64, Height: 64, ScalarRange: [2]float64{0, 2},
			})
			errs[r] = err
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
	if root == nil {
		t.Fatal("no volume composite at rank 0")
	}
	if root.CoveredPixels() == 0 {
		t.Fatal("volume composite empty")
	}
}

// Full integration: Colza deployment staging Mandelbulb blocks into the
// registered catalyst/iso pipeline over MoNA.
func TestIsoPipelineThroughColza(t *testing.T) {
	net := na.NewInprocNetwork()
	var servers []*core.Server
	for i := 0; i < 3; i++ {
		cfg := core.ServerConfig{SSG: ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20, Seed: int64(i + 1)}}
		if i > 0 {
			cfg.Bootstrap = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("cat%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	defer func() {
		for _, s := range servers {
			s.Shutdown()
		}
	}()
	if err := core.WaitMembers(servers, 3, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	ep, _ := net.Listen("cat-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)

	pipeCfg, _ := json.Marshal(IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: 64, Height: 64,
		ScalarRange: [2]float64{0, 32}, EmitImage: true, WarmupKiB: 16,
	})
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "viz", IsoPipelineType, pipeCfg); err != nil {
			t.Fatal(err)
		}
	}

	h := client.Handle("viz", servers[0].Addr())
	h.SetTimeout(30 * time.Second)
	mb := sim.DefaultMandelbulb([3]int{16, 16, 8}, 6)
	for it := uint64(1); it <= 2; it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < mb.Blocks; b++ {
			blk := sim.MandelbulbBlock(mb, b, it)
			if err := h.Stage(it, sim.MandelbulbMeta(mb, b), blk.Encode()); err != nil {
				t.Fatal(err)
			}
		}
		res, err := h.Execute(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 3 {
			t.Fatalf("%d results", len(res))
		}
		var totalBlocks float64
		for _, r := range res {
			totalBlocks += r.Summary["blocks"]
			if r.Summary["size"] != 3 {
				t.Fatalf("pipeline saw comm size %v", r.Summary["size"])
			}
		}
		if totalBlocks != 6 {
			t.Fatalf("blocks staged across servers = %v, want 6", totalBlocks)
		}
		if len(res[0].Image) == 0 {
			t.Fatal("rank 0 emitted no image")
		}
		if res[0].Image[1] != 'P' {
			t.Fatal("image is not a PNG")
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatal(err)
		}
	}
}

// Staging the wrong data type must fail cleanly.
func TestPipelineTypeChecking(t *testing.T) {
	factory, ok := core.LookupPipelineType(IsoPipelineType)
	if !ok {
		t.Fatal("iso type not registered")
	}
	b, err := factory(nil)
	if err != nil {
		t.Fatal(err)
	}
	world := minimpi.World(1)
	defer world[0].Finalize()
	err = b.Activate(core.IterationContext{Iteration: 1, Rank: 0, Size: 1, Comm: world[0]})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Stage(1, core.BlockMeta{Type: "ugrid"}, nil); err == nil {
		t.Fatal("iso pipeline accepted a ugrid block")
	}
	if err := b.Stage(1, core.BlockMeta{Type: "imagedata"}, []byte{1, 2}); err == nil {
		t.Fatal("iso pipeline accepted garbage bytes")
	}
	if err := b.Stage(99, core.BlockMeta{Type: "imagedata"}, vtk.NewImageData([3]int{2, 2, 2}, [3]float64{}, [3]float64{1, 1, 1}).Encode()); err == nil {
		t.Fatal("stage on wrong iteration accepted")
	}
	if _, err := b.Execute(99); err == nil {
		t.Fatal("execute on wrong iteration accepted")
	}
	if err := b.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Destroy(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaultsAndBadJSON(t *testing.T) {
	factory, _ := core.LookupPipelineType(VolumePipelineType)
	if _, err := factory(json.RawMessage(`{"field": 42}`)); err == nil {
		t.Fatal("bad config type accepted")
	}
	b, err := factory(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	vp := b.(*VolumePipeline)
	if vp.cfg.Width != 512 || vp.cfg.Field != "velocity" {
		t.Fatalf("defaults not applied: %+v", vp.cfg)
	}
}

// A misspelt option must fail the create, not render with its default:
// `iso_values` is not `isovalues`. Every catalyst factory refuses unknown
// keys, and the refusal reaches the admin client.
func TestConfigRefusesUnknownKeys(t *testing.T) {
	for _, typ := range []string{IsoPipelineType, VolumePipelineType, StatsPipelineType} {
		factory, _ := core.LookupPipelineType(typ)
		if _, err := factory(json.RawMessage(`{"field":"value","iso_values":[8]}`)); err == nil {
			t.Errorf("%s accepted an unknown key", typ)
		}
	}
	net := na.NewInprocNetwork()
	s, err := core.StartInprocServer(net, "strict0", core.ServerConfig{SSG: ssg.Config{GossipPeriod: 5 * time.Millisecond, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	ep, _ := net.Listen("strict-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	admin := core.NewAdminClient(mi)
	err = admin.CreatePipeline(s.Addr(), "viz", IsoPipelineType, json.RawMessage(`{"field":"value","iso_values":[8]}`))
	if err == nil || !strings.Contains(err.Error(), "iso_values") {
		t.Fatalf("create_pipeline with a misspelt key: err = %v", err)
	}
	if err := admin.CreatePipeline(s.Addr(), "viz", IsoPipelineType, json.RawMessage(`{"field":"value","isovalues":[8]}`)); err != nil {
		t.Fatal(err)
	}
}

// Tree reduce is the one compositor: the iso factory accepts "tree" or no
// strategy, and refuses any other name instead of compositing with tree
// reduce regardless.
func TestIsoConfigRefusesUnknownStrategy(t *testing.T) {
	factory, _ := core.LookupPipelineType(IsoPipelineType)
	for cfg, ok := range map[string]bool{
		`{}`:                         true,
		`{"strategy":""}`:            true,
		`{"strategy":"tree"}`:        true,
		`{"strategy":"bswap"}`:       false,
		`{"strategy":"Tree"}`:        false,
		`{"strategy":"binary-swap"}`: false,
	} {
		_, err := factory(json.RawMessage(cfg))
		if (err == nil) != ok {
			t.Errorf("%s: err = %v", cfg, err)
		}
	}
}

// The first execution must be measurably more expensive than later ones
// (the warm-up spike the elasticity figures show on joins), and the spike
// must be reported in the stats.
func TestWarmupSpikeOnFirstExecute(t *testing.T) {
	factory, _ := core.LookupPipelineType(IsoPipelineType)
	b, _ := factory(json.RawMessage(`{"warmup_kib": 8192, "width": 32, "height": 32}`))
	world := minimpi.World(1)
	defer world[0].Finalize()
	ctx := core.IterationContext{Iteration: 1, Rank: 0, Size: 1, Comm: world[0]}
	if err := b.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	r1, err := b.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	b.Deactivate(1)
	if r1.Summary["warmup_sec"] <= 0 {
		t.Fatal("first execute reported no warmup")
	}
	ctx.Iteration = 2
	if err := b.Activate(ctx); err != nil {
		t.Fatal(err)
	}
	r2, err := b.Execute(2)
	if err != nil {
		t.Fatal(err)
	}
	b.Deactivate(2)
	if r2.Summary["warmup_sec"] != 0 {
		t.Fatal("second execute paid warmup again")
	}
	if r1.Summary["execute_sec"] < r2.Summary["execute_sec"] {
		t.Fatalf("first execute (%v) should be slower than second (%v)",
			r1.Summary["execute_sec"], r2.Summary["execute_sec"])
	}
}
