package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/catalyst"
	"colza/internal/collectives"
	"colza/internal/core"
	"colza/internal/icet"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/minimpi"
	"colza/internal/mona"
	"colza/internal/na"
	"colza/internal/render"
	"colza/internal/sim"
	"colza/internal/ssg"
	"colza/internal/vstack"
	"colza/internal/vtk"
)

// Fig1aDataGrowth reproduces Figure 1a: cells and file size per iteration
// of the Deep Water Impact proxy (the data-growth curve that motivates
// elasticity).
func Fig1aDataGrowth(quick bool) *Table {
	cfg := sim.DefaultDWI()
	if quick {
		cfg = sim.DWIConfig{Blocks: 16, Iterations: 12, BaseRes: 16, GrowthRes: 2}
	}
	t := &Table{
		ID:      "Fig. 1a",
		Title:   "Deep Water Impact proxy: data growth over iterations",
		Note:    "synthetic DWI stand-in (dataset not redistributable); shape: monotone growth",
		Columns: []string{"iteration", "cells", "bytes", "cells/iter1"},
	}
	rows := sim.DWIGrowth(cfg)
	base := rows[0].Cells
	if base == 0 {
		base = 1
	}
	for _, r := range rows {
		t.Add(r.Iteration, r.Cells, r.FileBytes, float64(r.Cells)/float64(base))
	}
	return t
}

// Table1PointToPoint reproduces Table I: time for 1000 send/recv
// operations per message size, for the four stacks, on the virtual Cori
// network.
func Table1PointToPoint(quick bool) *Table {
	ops := 1000
	if quick {
		ops = 200
	}
	sizes := []int{8, 128, 2 << 10, 16 << 10, 32 << 10, 512 << 10}
	stacks := []vstack.Profile{vstack.VendorMPI, vstack.OpenMPI, vstack.MoNA, vstack.NA}
	t := &Table{
		ID:      "Table I",
		Title:   fmt.Sprintf("time (ms) for %d send/recv operations", ops),
		Note:    "virtual-time protocol models on the Cori-calibrated wire; NA reported for small messages only, as in the paper",
		Columns: []string{"size", "cray-mpich", "openmpi", "mona", "na"},
	}
	for _, size := range sizes {
		row := []interface{}{sizeLabel(size)}
		for _, pr := range stacks {
			if pr.Name == "na" && size > 2<<10 {
				row = append(row, "-")
				continue
			}
			d, err := vstack.PingPong(pr, vstack.InterNode(), size, ops)
			if err != nil {
				row = append(row, "err")
				continue
			}
			scaled := d * time.Duration(1000) / time.Duration(ops)
			row = append(row, fmt.Sprintf("%.3f", float64(scaled)/float64(time.Millisecond)))
		}
		t.Add(row...)
	}
	return t
}

// Table2Reduce reproduces Table II: time for 1000 binary-xor reduce
// operations over 512 processes (32 nodes x 16 ranks).
func Table2Reduce(quick bool) *Table {
	procs, count := 512, 40
	if quick {
		procs, count = 128, 5
	}
	sizes := []int{8, 128, 2 << 10, 16 << 10, 32 << 10}
	stacks := []vstack.Profile{vstack.VendorMPI, vstack.OpenMPI, vstack.MoNA}
	t := &Table{
		ID:      "Table II",
		Title:   fmt.Sprintf("time (ms) for 1000 xor-reduce operations over %d processes (extrapolated from %d)", procs, count),
		Note:    "OpenMPI's collapse comes from its degenerate large-message collective; MoNA stays within a single-digit factor of vendor MPI",
		Columns: []string{"size", "cray-mpich", "openmpi", "mona"},
	}
	for _, size := range sizes {
		row := []interface{}{sizeLabel(size)}
		for _, pr := range stacks {
			n := count
			// The pathological flat algorithm is slow even to simulate;
			// fewer samples suffice (it is deterministic).
			if pr.Name == "openmpi" && size > pr.EagerLimit {
				n = 2
			}
			d, err := vstack.ReduceBench(pr, vstack.Table2Topology(), procs, size, n)
			if err != nil {
				row = append(row, "err")
				continue
			}
			per1000 := d * time.Duration(1000) / time.Duration(n)
			row = append(row, fmt.Sprintf("%.1f", float64(per1000)/float64(time.Millisecond)))
		}
		t.Add(row...)
	}
	return t
}

// launchCost models the time from asking the launcher for a process to
// that process starting to execute (srun dispatch, binary load, service
// init). The paper's restarts take 5-40 s; we scale 1:20 to keep the
// experiment short and report both units.
const fig4TimeScale = 20

func launchCost(rng *rand.Rand) time.Duration {
	base := 60 * time.Millisecond
	tail := time.Duration(rng.ExpFloat64() * float64(120*time.Millisecond))
	if tail > 1500*time.Millisecond {
		tail = 1500 * time.Millisecond
	}
	return base + tail
}

// Fig4Resizing reproduces Figure 4: the time to grow a staging area from
// N to N+1 servers, comparing a full restart (static) with an SSG join
// (elastic). Real SSG gossip runs; only the process-launch cost is
// modeled (scaled 1:20).
func Fig4Resizing(quick bool) *Table {
	maxN := 16
	if quick {
		maxN = 6
	}
	t := &Table{
		ID:      "Fig. 4",
		Title:   "resizing time from N to N+1 servers (seconds, scaled x20 to paper units)",
		Note:    "static = kill + relaunch everything (launch costs modeled, gossip real); elastic = launch one daemon + SSG join propagation",
		Columns: []string{"N", "static_s", "elastic_s"},
	}
	rng := rand.New(rand.NewSource(11))
	cfg := ssg.Config{GossipPeriod: 10 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20}
	const teardown = 25 * time.Millisecond // kill + srun teardown, scaled

	for n := 1; n <= maxN; n++ {
		// --- static: kill everything, relaunch n+1 fresh daemons in
		// parallel (completion at the slowest launch), re-form the group.
		staticNet := na.NewInprocNetwork()
		start := time.Now()
		time.Sleep(teardown)
		var slowest time.Duration
		for i := 0; i <= n; i++ {
			if c := launchCost(rng); c > slowest {
				slowest = c
			}
		}
		time.Sleep(slowest)
		var servers []*core.Server
		boot := ""
		for i := 0; i <= n; i++ {
			scfg := core.ServerConfig{GroupName: "fig4", Bootstrap: boot, SSG: cfg}
			scfg.SSG.Seed = int64(i + 1)
			s, err := core.StartInprocServer(staticNet, fmt.Sprintf("st%d", i), scfg)
			if err != nil {
				t.Add(n, "err", "err")
				continue
			}
			servers = append(servers, s)
			if boot == "" {
				boot = s.Addr()
			}
		}
		waitViews(servers, n+1, 30*time.Second)
		staticTime := time.Since(start)
		for _, s := range servers {
			s.Shutdown()
		}

		// --- elastic: a running group of n servers; add one and wait for
		// the membership information to propagate everywhere.
		elNet := na.NewInprocNetwork()
		var el []*core.Server
		boot = ""
		for i := 0; i < n; i++ {
			scfg := core.ServerConfig{GroupName: "fig4e", Bootstrap: boot, SSG: cfg}
			scfg.SSG.Seed = int64(100 + i)
			s, _ := core.StartInprocServer(elNet, fmt.Sprintf("el%d", i), scfg)
			el = append(el, s)
			if boot == "" {
				boot = s.Addr()
			}
		}
		waitViews(el, n, 30*time.Second)
		start = time.Now()
		time.Sleep(launchCost(rng)) // the new daemon's launch
		scfg := core.ServerConfig{GroupName: "fig4e", Bootstrap: boot, SSG: cfg}
		scfg.SSG.Seed = 999
		s, err := core.StartInprocServer(elNet, "el-new", scfg)
		if err == nil {
			el = append(el, s)
		}
		waitViews(el, n+1, 30*time.Second)
		elasticTime := time.Since(start)
		for _, s := range el {
			s.Shutdown()
		}

		t.Add(n,
			fmt.Sprintf("%.1f", staticTime.Seconds()*fig4TimeScale),
			fmt.Sprintf("%.1f", elasticTime.Seconds()*fig4TimeScale))
	}
	return t
}

func waitViews(servers []*core.Server, n int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, s := range servers {
			if len(s.Group.Members()) != n {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// AblationA1TreeShapes compares collective tree shapes (DESIGN.md A1).
func AblationA1TreeShapes(quick bool) *Table {
	procs, count := 256, 10
	if quick {
		procs, count = 64, 4
	}
	t := &Table{
		ID:      "Ablation A1",
		Title:   fmt.Sprintf("bcast time (us/op) by tree shape, %d processes", procs),
		Columns: []string{"size", "binomial", "kary4", "flat"},
	}
	algos := []collectives.Algorithm{
		{Kind: collectives.Binomial},
		{Kind: collectives.KAry, K: 4},
		{Kind: collectives.Flat},
	}
	for _, size := range []int{8, 2 << 10, 32 << 10} {
		row := []interface{}{sizeLabel(size)}
		for _, a := range algos {
			d, err := vstack.BcastBench(vstack.MoNA, vstack.Table2Topology(), procs, size, count, a)
			if err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", float64(d/time.Duration(count))/float64(time.Microsecond)))
		}
		t.Add(row...)
	}
	return t
}

// AblationA2EagerLimit sweeps MoNA's protocol switch point (DESIGN.md
// A2): why RDMA at 4KiB beats staying eager.
func AblationA2EagerLimit(quick bool) *Table {
	ops := 400
	if quick {
		ops = 100
	}
	t := &Table{
		ID:      "Ablation A2",
		Title:   "MoNA p2p time (us/op) vs protocol switch threshold",
		Columns: []string{"size", "switch@1KiB", "switch@4KiB", "switch@64KiB", "never(eager)"},
	}
	limits := []int{1 << 10, 4 << 10, 64 << 10, 1 << 30}
	for _, size := range []int{2 << 10, 16 << 10, 128 << 10, 512 << 10} {
		row := []interface{}{sizeLabel(size)}
		for _, lim := range limits {
			pr := vstack.MoNA.WithEagerLimit(lim)
			d, err := vstack.PingPong(pr, vstack.InterNode(), size, ops)
			if err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", float64(d/time.Duration(ops))/float64(time.Microsecond)))
		}
		t.Add(row...)
	}
	return t
}

// AblationA4BufferCache isolates MoNA's request/buffer caching, the
// mechanism behind the NA-vs-MoNA gap in Table I.
func AblationA4BufferCache(quick bool) *Table {
	ops := 1000
	if quick {
		ops = 200
	}
	t := &Table{
		ID:      "Ablation A4",
		Title:   "MoNA p2p time (us/op) with and without buffer caching",
		Columns: []string{"size", "cache", "no-cache", "overhead_%"},
	}
	for _, size := range []int{8, 128, 2 << 10} {
		with, err1 := vstack.PingPong(vstack.MoNA, vstack.InterNode(), size, ops)
		without, err2 := vstack.PingPong(vstack.MoNANoCache(), vstack.InterNode(), size, ops)
		if err1 != nil || err2 != nil {
			t.Add(sizeLabel(size), "err", "err", "-")
			continue
		}
		t.Add(sizeLabel(size),
			fmt.Sprintf("%.3f", float64(with/time.Duration(ops))/float64(time.Microsecond)),
			fmt.Sprintf("%.3f", float64(without/time.Duration(ops))/float64(time.Microsecond)),
			fmt.Sprintf("%.1f", 100*(float64(without)/float64(with)-1)))
	}
	return t
}

// AblationA5GossipPeriod measures join-propagation time against the SSG
// gossip period (the Sec. II-E overhead discussion).
func AblationA5GossipPeriod(quick bool) *Table {
	groupSize := 8
	if quick {
		groupSize = 4
	}
	t := &Table{
		ID:      "Ablation A5",
		Title:   fmt.Sprintf("SSG join propagation time vs gossip period (group of %d)", groupSize),
		Columns: []string{"period_ms", "propagation_ms", "periods"},
	}
	for _, period := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond} {
		net := na.NewInprocNetwork()
		cfg := ssg.Config{GossipPeriod: period, SuspectPeriods: 4}
		var servers []*core.Server
		boot := ""
		for i := 0; i < groupSize; i++ {
			scfg := core.ServerConfig{GroupName: "a5", Bootstrap: boot, SSG: cfg}
			scfg.SSG.Seed = int64(i + 1)
			s, err := core.StartInprocServer(net, fmt.Sprintf("a5-%d", i), scfg)
			if err != nil {
				t.Add(period.Milliseconds(), "err", "-")
				continue
			}
			servers = append(servers, s)
			if boot == "" {
				boot = s.Addr()
			}
		}
		waitViews(servers, groupSize, 30*time.Second)
		start := time.Now()
		scfg := core.ServerConfig{GroupName: "a5", Bootstrap: boot, SSG: cfg}
		scfg.SSG.Seed = 777
		s, err := core.StartInprocServer(net, "a5-new", scfg)
		if err == nil {
			servers = append(servers, s)
		}
		waitViews(servers, groupSize+1, 60*time.Second)
		el := time.Since(start)
		for _, s := range servers {
			s.Shutdown()
		}
		t.Add(period.Milliseconds(),
			fmt.Sprintf("%.1f", float64(el)/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(el)/float64(period)))
	}
	return t
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// --- Zero-copy hot-path micro-benchmarks (BENCH_3) ------------------------
//
// The stage → pull → composite hot path is pooled end to end (bufpool wire
// frames, PullBulkInto, render's image pool). These benchmarks are the
// harness that locks the result in: they run both under `go test -bench`
// (see micro_test.go) and from colza-bench, which emits the BENCH_3.json
// trajectory point comparing against the pre-change baselines below.

// Pre-change allocs/op baselines, measured at the seed of this change
// (encode-into-fresh-slice, PullBulk-into-fresh-slice, unpooled composite
// scratch) with the exact op shapes of the benchmarks below.
const (
	BaselineStagePutAllocs  = 85.0
	BaselineBulkPullAllocs  = 21.0
	BaselineCompositeAllocs = 48.0
)

// sinkBackend is the no-op pipeline the staging benchmarks stage into; it
// follows the Backend contract (data is borrowed only for the call).
type sinkBackend struct{ bytes atomic.Int64 }

func (s *sinkBackend) Activate(core.IterationContext) error { return nil }
func (s *sinkBackend) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	s.bytes.Add(int64(len(data)))
	return nil
}
func (s *sinkBackend) Execute(uint64) (core.ExecResult, error) { return core.ExecResult{}, nil }
func (s *sinkBackend) Deactivate(uint64) error                 { return nil }
func (s *sinkBackend) Destroy() error                          { return nil }

func init() {
	core.RegisterPipelineType("bench/sink", func(json.RawMessage) (core.Backend, error) {
		return &sinkBackend{}, nil
	})
}

// stagePutEnv builds the minimal single-server staging deployment the
// stage-put benchmark drives: in-process transport, one provider hosting a
// sink pipeline, and a solo (non-collective) client handle with iteration
// 1 active. Returned cleanup finalizes both margo instances.
func stagePutEnv() (h *core.PipelineHandle, img *vtk.ImageData, cleanup func(), err error) {
	net := na.NewInprocNetwork()
	sEP, err := net.Listen("micro-srv")
	if err != nil {
		return nil, nil, nil, err
	}
	mi := margo.NewInstance(sEP)
	mEP, err := net.Listen("micro-srv:mona")
	if err != nil {
		return nil, nil, nil, err
	}
	mn := mona.NewInstance(mEP)
	prov := core.NewProvider(mi, mn, nil)
	if err := prov.CreatePipeline("bench", "bench/sink", nil); err != nil {
		return nil, nil, nil, err
	}
	cEP, err := net.Listen("micro-cli")
	if err != nil {
		return nil, nil, nil, err
	}
	cmi := margo.NewInstance(cEP)
	cli := core.NewClient(cmi)
	h = cli.SoloHandle("bench", mi.Addr())
	if err := h.Activate(1); err != nil {
		return nil, nil, nil, err
	}
	img = vtk.NewImageData([3]int{32, 32, 32}, [3]float64{}, [3]float64{1, 1, 1})
	a := img.AddPointArray("v", 1)
	for i := range a.Data {
		a.Data[i] = float32(i % 97)
	}
	cleanup = func() {
		cmi.Finalize()
		mi.Finalize()
	}
	return h, img, cleanup, nil
}

// stagePutOp is one benchmarked operation: encode the block into a pooled
// frame, stage it through the full RPC + bulk-pull path, recycle the frame.
func stagePutOp(h *core.PipelineHandle, img *vtk.ImageData, meta core.BlockMeta) error {
	data := img.AppendEncode(bufpool.Get(img.EncodedSize())[:0])
	err := h.Stage(1, meta, data)
	bufpool.Put(data)
	return err
}

// BenchStagePut measures the client-observed stage hot path: vtk encode →
// bulk expose → stage RPC → server-side concurrent pull → backend.
func BenchStagePut(b *testing.B) {
	h, img, cleanup, err := stagePutEnv()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	meta := core.BlockMeta{Field: "v", BlockID: 0, Type: "imagedata"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stagePutOp(h, img, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchStagePutCompressed measures the same stage hot path with the wire
// codec forced to delta — the costliest client path: pooled XOR copy,
// shuffle+RLE encode into a pooled wire buffer, base Remember — plus the
// server-side decode and XOR reconstruction.
func BenchStagePutCompressed(b *testing.B) {
	h, img, cleanup, err := stagePutEnv()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	if err := h.SetCodec("delta"); err != nil {
		b.Fatal(err)
	}
	meta := core.BlockMeta{Field: "v", BlockID: 0, Type: "imagedata"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stagePutOp(h, img, meta); err != nil {
			b.Fatal(err)
		}
	}
}

// bulkPullEnv exposes a 1 MiB region on one endpoint and returns the
// puller's class plus the handle.
func bulkPullEnv() (puller *mercury.Class, bulk mercury.Bulk, cleanup func(), err error) {
	net := na.NewInprocNetwork()
	oEP, err := net.Listen("micro-own")
	if err != nil {
		return nil, mercury.Bulk{}, nil, err
	}
	pEP, err := net.Listen("micro-pull")
	if err != nil {
		return nil, mercury.Bulk{}, nil, err
	}
	owner := margo.NewInstance(oEP)
	pullerMI := margo.NewInstance(pEP)
	region := make([]byte, 1<<20)
	for i := range region {
		region[i] = byte(i * 31)
	}
	bulk = owner.Class().Expose(region)
	cleanup = func() {
		owner.Class().Release(bulk)
		pullerMI.Finalize()
		owner.Finalize()
	}
	return pullerMI.Class(), bulk, cleanup, nil
}

// BenchBulkPull measures a remote 1 MiB chunked pull landing in a reused
// caller-provided buffer (the PullBulkInto server path).
func BenchBulkPull(b *testing.B) {
	puller, bulk, cleanup, err := bulkPullEnv()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	dst := make([]byte, bulk.Size)
	b.SetBytes(int64(bulk.Size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := puller.PullBulkInto(bulk, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// compositeEnv builds deterministic 64×64 framebuffers for 4 ranks.
func compositeEnv() (world []*minimpi.Comm, imgs []*render.Image) {
	const ranks, w, h = 4, 64, 64
	world = minimpi.World(ranks)
	rng := rand.New(rand.NewSource(3))
	imgs = make([]*render.Image, ranks)
	for r := range imgs {
		im := render.NewImage(w, h)
		for i := 0; i < w*h; i++ {
			if rng.Float64() < 0.3 {
				continue
			}
			im.RGBA[4*i+3] = uint8(rng.Intn(256))
			im.Depth[i] = rng.Float32()
		}
		imgs[r] = im
	}
	return world, imgs
}

// compositeOp runs one 4-rank tree-reduce depth composite.
func compositeOp(world []*minimpi.Comm, imgs []*render.Image) error {
	errs := make([]error, len(world))
	var wg sync.WaitGroup
	for r := range world {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			_, errs[r] = icet.Composite(imgs[r], world[r], icet.TreeReduce, icet.Depth, 0)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// BenchCompositePooled measures a full 4-rank tree composite with the
// pooled scratch images and wire frames.
func BenchCompositePooled(b *testing.B) {
	world, imgs := compositeEnv()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := compositeOp(world, imgs); err != nil {
			b.Fatal(err)
		}
	}
}

// grayScottSlabs runs Gray-Scott on an n^3 grid for the given steps and
// cuts the state into z-slabs that share their boundary planes — the blocks
// the repository benchmark's gs_iso_inproc workload stages (n 64, 200
// steps, 16 slabs of 64x64x5 points).
func grayScottSlabs(n, steps, slabs int) ([]*vtk.ImageData, error) {
	gs := sim.NewGrayScott(nil, [3]int{n, n, n}, sim.DefaultGrayScott())
	if err := gs.Step(steps); err != nil {
		return nil, err
	}
	full := gs.Block()
	per, plane := n/slabs, n*n
	out := make([]*vtk.ImageData, slabs)
	for s := range out {
		z0, z1 := s*per, (s+1)*per
		if s == slabs-1 {
			z1 = n - 1
		}
		origin := full.Origin
		origin[2] += float64(z0) * full.Spacing[2]
		blk := vtk.NewImageData([3]int{n, n, z1 - z0 + 1}, origin, full.Spacing)
		for _, a := range full.PointData {
			copy(blk.AddPointArray(a.Name, a.Components).Data, a.Data[z0*plane:(z1+1)*plane])
		}
		out[s] = blk
	}
	return out, nil
}

// isoExecuteEnv stages blocks into a catalyst/iso instance configured as
// gs_iso_inproc configures it (three isovalues, clip at x = n/2, 256x256)
// and returns its Execute. The instance is the only rank of its group and
// emits no image, so one call is extraction plus rasterization on the
// pipeline's own workspace: the composite is the identity and no PNG is
// encoded. Each call returns the triangle count.
func isoExecuteEnv(blocks []*vtk.ImageData) (exec func() (int, error), cleanup func(), err error) {
	catalyst.Register()
	factory, _ := core.LookupPipelineType(catalyst.IsoPipelineType)
	cfg, err := json.Marshal(catalyst.IsoConfig{
		Field: "V", IsoValues: []float64{0.1, 0.2, 0.3}, Width: 256, Height: 256,
		ScalarRange: [2]float64{0, 0.5}, Strategy: "tree", WarmupKiB: 16,
		Clip: &catalyst.ClipSpec{Normal: [3]float64{1, 0, 0}, Offset: float64(blocks[0].Dims[0]) / 2},
	})
	if err != nil {
		return nil, nil, err
	}
	backend, err := factory(cfg)
	if err != nil {
		return nil, nil, err
	}
	world := minimpi.World(1)
	cleanup = func() {
		backend.Destroy()
		world[0].Finalize()
	}
	if err := backend.Activate(core.IterationContext{Iteration: 1, Size: 1, Comm: world[0]}); err != nil {
		cleanup()
		return nil, nil, err
	}
	for _, blk := range blocks {
		if err := backend.Stage(1, core.BlockMeta{Type: "imagedata"}, blk.Encode()); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	exec = func() (int, error) {
		res, err := backend.Execute(1)
		return int(res.Summary["triangles"]), err
	}
	return exec, cleanup, nil
}

// BenchIsoExecute measures one warm extract + render of the gs_iso_inproc
// shape on a pipeline-owned workspace.
func BenchIsoExecute(b *testing.B) {
	blocks, err := grayScottSlabs(64, 200, 16)
	if err != nil {
		b.Fatal(err)
	}
	exec, cleanup, err := isoExecuteEnv(blocks)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	if _, err := exec(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec(); err != nil {
			b.Fatal(err)
		}
	}
}

// ZeroCopyPoint is one benchmark's entry in the BENCH_3.json trajectory.
type ZeroCopyPoint struct {
	Name           string  `json:"name"`
	AllocsPerOp    float64 `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	NsPerOp        int64   `json:"ns_per_op"`
	BaselineAllocs float64 `json:"baseline_allocs_per_op"`
	ReductionPct   float64 `json:"reduction_pct"`
}

// zeroCopyBenches pairs each benchmark with its pre-change baseline.
var zeroCopyBenches = []struct {
	name     string
	baseline float64
	fn       func(*testing.B)
}{
	{"StagePut", BaselineStagePutAllocs, BenchStagePut},
	{"BulkPull", BaselineBulkPullAllocs, BenchBulkPull},
	{"CompositePooled", BaselineCompositeAllocs, BenchCompositePooled},
}

// RunZeroCopy executes the three micro-benchmarks via testing.Benchmark
// and returns their trajectory points.
func RunZeroCopy() []ZeroCopyPoint {
	out := make([]ZeroCopyPoint, 0, len(zeroCopyBenches))
	for _, zb := range zeroCopyBenches {
		r := testing.Benchmark(zb.fn)
		allocs := float64(r.AllocsPerOp())
		out = append(out, ZeroCopyPoint{
			Name:           zb.name,
			AllocsPerOp:    allocs,
			BytesPerOp:     r.AllocedBytesPerOp(),
			NsPerOp:        r.NsPerOp(),
			BaselineAllocs: zb.baseline,
			ReductionPct:   100 * (1 - allocs/zb.baseline),
		})
	}
	return out
}

// MicroZeroCopy is the "micro" experiment: the zero-copy hot-path
// trajectory as a table (colza-bench -out) — use -benchjson to also write
// the machine-readable BENCH_3.json point.
func MicroZeroCopy(quick bool) (*Table, error) {
	t := &Table{
		ID:      "BENCH 3",
		Title:   "zero-copy hot path: allocs/op vs pre-change baseline",
		Note:    "StagePut = encode+stage 32³ block (solo, inproc); BulkPull = 1MiB PullBulkInto; Composite = 4-rank 64×64 tree/depth",
		Columns: []string{"benchmark", "allocs/op", "baseline", "reduction_%", "B/op", "ns/op"},
	}
	for _, p := range RunZeroCopy() {
		t.Add(p.Name, p.AllocsPerOp, p.BaselineAllocs, p.ReductionPct, p.BytesPerOp, p.NsPerOp)
	}
	return t, nil
}

// ZeroCopyTrajectoryJSON renders the BENCH_3.json payload.
func ZeroCopyTrajectoryJSON() ([]byte, error) {
	doc := struct {
		Issue      int             `json:"issue"`
		Benchmarks []ZeroCopyPoint `json:"benchmarks"`
	}{Issue: 3, Benchmarks: RunZeroCopy()}
	return json.MarshalIndent(doc, "", "  ")
}
