package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/catalyst"
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
	"colza/internal/vtk"
)

// Allocation gates on the pooled hot paths: stage → pull → composite, the
// batcher's enqueue, a warm iso execute, and the buffer pool's own
// get/put cycle under all of them. Each path has an env that
// builds the smallest deployment able to run it and an op that is one
// measured operation; the AllocsCeiling tests pin the op's allocs/op and the
// `go test -bench` wrappers time the same op (make bench-smoke runs them once
// under -race). Wall time and throughput of these paths are measured by
// benchmark/, not here.

// sinkBackend is the no-op pipeline the staging ops stage into; it follows
// the Backend contract (data is borrowed only for the call).
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

// stagePutEnv builds the minimal single-server staging deployment: in-process
// transport, one provider hosting a sink pipeline (no SSG group: the
// provider is its own one-member view), and a client handle with iteration
// 1 active. Returned cleanup finalizes both margo instances.
func stagePutEnv() (h *core.DistributedPipelineHandle, img *vtk.ImageData, cleanup func(), err error) {
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
	h = cli.Handle("bench", mi.Addr())
	if _, err := h.Activate(1); err != nil {
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

// stagePutOp is one client-observed stage: encode the block into a pooled
// frame, stage it through the full RPC + bulk-pull path, recycle the frame.
func stagePutOp(h *core.DistributedPipelineHandle, img *vtk.ImageData) error {
	data := img.AppendEncode(bufpool.Get(img.EncodedSize())[:0])
	err := h.Stage(1, core.BlockMeta{Field: "v", BlockID: 0, Type: "imagedata"}, data)
	bufpool.Put(data)
	return err
}

// stageBatchEnv builds the single-server deployment the batched op drives,
// on sm+tcp endpoints: a handle coalesces exactly when its endpoint publishes
// staged regions in a shared arena (core.Client.Handle), so that is where the
// batcher runs, on its constant triggers. One daemon forms a real SSG group
// (so the collective handle can Activate) and hosts a sink pipeline; the
// distributed client handle comes back with iteration 1 active.
func stageBatchEnv(name string) (h *core.DistributedPipelineHandle, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "czsm-bench-")
	if err != nil {
		return nil, nil, err
	}
	var (
		srv *core.Server
		cmi *margo.Instance
	)
	cleanup = func() {
		if h != nil {
			h.Close()
		}
		if cmi != nil {
			cmi.Finalize()
		}
		if srv != nil {
			srv.Shutdown()
		}
		os.RemoveAll(dir)
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()
	listen := func() (na.Endpoint, error) { return na.ListenDual("127.0.0.1:0", dir, "") }
	rpcEP, err := listen()
	if err != nil {
		return nil, nil, err
	}
	monaEP, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		rpcEP.Close()
		return nil, nil, err
	}
	srv, err = core.StartServer(rpcEP, monaEP, core.ServerConfig{
		GroupName: name,
		SSG:       ssg.Config{GossipPeriod: 10 * time.Millisecond},
	})
	if err != nil {
		return nil, nil, err
	}
	cEP, err := listen()
	if err != nil {
		return nil, nil, err
	}
	cmi = margo.NewInstance(cEP)
	if err := core.NewAdminClient(cmi).CreatePipeline(srv.Addr(), "bench", "bench/sink", nil); err != nil {
		return nil, nil, err
	}
	h = core.NewClient(cmi).Handle("bench", srv.Addr())
	h.SetTimeout(10 * time.Second)
	if _, err := h.Activate(1); err != nil {
		return nil, nil, err
	}
	return h, cleanup, nil
}

// stageBatchOp stages one iteration's worth of small blocks into the active
// iteration and drains the handle: the Stage calls enqueue into coalesced
// frames and Flush is the barrier.
func stageBatchOp(h *core.DistributedPipelineHandle, blocks int, data []byte) error {
	meta := core.BlockMeta{Field: "v", Type: "raw"}
	for b := 0; b < blocks; b++ {
		meta.BlockID = b
		if err := h.Stage(1, meta, data); err != nil {
			return fmt.Errorf("stage block %d: %w", b, err)
		}
	}
	return h.Flush(1)
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

// compositeEnv builds deterministic n×n framebuffers for 4 ranks.
func compositeEnv(n int) (world []*minimpi.Comm, imgs []*render.Image) {
	const ranks = 4
	w, h := n, n
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

// benchLoop times op, the operation a ceiling test below measures.
func benchLoop(b *testing.B, op func() error) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStagePut(b *testing.B, codecName string) {
	h, img, cleanup, err := stagePutEnv()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	if codecName != "" {
		if err := h.SetCodec(codecName); err != nil {
			b.Fatal(err)
		}
	}
	benchLoop(b, func() error { return stagePutOp(h, img) })
}

// The client-observed stage hot path (vtk encode → bulk expose → stage RPC →
// server-side pull → backend), raw and with the wire codec forced to delta.
func BenchmarkStagePut(b *testing.B)           { benchStagePut(b, "") }
func BenchmarkStagePutCompressed(b *testing.B) { benchStagePut(b, "delta") }

// A remote 1 MiB chunked pull landing in a reused caller-provided buffer.
func BenchmarkBulkPull(b *testing.B) {
	puller, bulk, cleanup, err := bulkPullEnv()
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	dst := make([]byte, bulk.Size)
	b.SetBytes(int64(bulk.Size))
	benchLoop(b, func() error { return puller.PullBulkInto(bulk, dst) })
}

// A full 4-rank tree composite with the pooled scratch images and frames,
// at the ceiling test's 64² and the benchmark's 256² (where one encoded
// frame is 512 KiB).
func BenchmarkCompositePooled(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			world, imgs := compositeEnv(n)
			benchLoop(b, func() error { return compositeOp(world, imgs) })
		})
	}
}

// The warm iso execute on the gs_iso_inproc shape, whole (extract + render
// on the pipeline's own workspace) and phase by phase on storage each
// phase reuses: the clipped extraction of every block into one mesh, its
// rasterization at 256², and the PNG of that frame. A phase's profile is
//
//	go test -run '^$' -bench 'IsoExecute/render' -cpuprofile cpu.out ./internal/bench/
func BenchmarkIsoExecute(b *testing.B) {
	blocks, err := grayScottSlabs(64, 200, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("execute", func(b *testing.B) {
		exec, cleanup, err := isoExecuteEnv(blocks)
		if err != nil {
			b.Fatal(err)
		}
		defer cleanup()
		if _, err := exec(); err != nil { // warm: sizes the workspace
			b.Fatal(err)
		}
		benchLoop(b, func() error { _, err := exec(); return err })
	})

	isos := []float64{0.1, 0.2, 0.3}
	clip := &vtk.Plane{Normal: [3]float32{1, 0, 0}, Offset: 32}
	var mesh vtk.TriangleMesh
	extract := func() error {
		mesh.Reset()
		for _, blk := range blocks {
			if err := vtk.ExtractIsosurfaces(&mesh, blk, "V", isos, clip); err != nil {
				return err
			}
		}
		return nil
	}
	if err := extract(); err != nil {
		b.Fatal(err)
	}
	frame := render.NewImage(256, 256)
	cam := render.DefaultCamera(render.MeshBounds(&mesh))
	rasterize := func() error {
		frame.Clear()
		render.RasterizeMesh(frame, cam, &mesh, render.CoolWarm, [2]float64{0, 0.5})
		return nil
	}
	rasterize()
	b.Run("extract", func(b *testing.B) { benchLoop(b, extract) })
	b.Run("render", func(b *testing.B) { benchLoop(b, rasterize) })
	b.Run("png", func(b *testing.B) { benchLoop(b, func() error { _, err := frame.PNG(); return err }) })
}

// Allocs/op ceilings: they hold the pooled hot paths at their measured level
// with a little headroom for runtime jitter. The unpooled paths they
// replaced sat at 85 (stage put), 21 (bulk pull) and 48 (composite)
// allocs/op — BENCH_3.json is the frozen record.
const (
	ceilStagePutAllocs  = 32.0 // measured 29
	ceilBulkPullAllocs  = 12.0
	ceilCompositeAllocs = 36.0
	// The delta-compressed stage path: raw-path RPC allocs plus the codec's
	// pooled buffers (XOR scratch, wire frame, server decode target, base
	// copies). Steady state stays pool-served; the headroom absorbs jitter.
	// Measured 24 — below the raw path's 29, because the compressed payload
	// is small enough to ride in the stage frame (no pull RPC) while the raw
	// 128 KiB block is pulled.
	ceilCompressedStageAllocs = 28.0
	// Batched stage path, amortized per block: the enqueue side is an append
	// into the batch's pooled payload plus one record struct, and the frame /
	// response / pull allocations amortize across MaxBlocks blocks — so the
	// per-block budget sits far below the per-RPC ceilings above. Measured
	// 1.7 with the stage instruments resolved once per handle and slot.
	ceilBatchedStagePerBlockAllocs = 3.0
	// A warm catalyst/iso Execute short of composite and PNG: the
	// controller, the clip plane, the result's summary map. Measured 5, with
	// 134 k triangles as with 24 k; the mesh and the framebuffer are the
	// pipeline's and are refilled in place.
	ceilIsoExecuteAllocs = 6.0
	// One inproc RPC round trip of a 512 B payload, both sides: the frame is
	// joined by the one copy the in-process endpoint makes of a gathered
	// send, and its header rides in a pooled buffer. Measured 8.
	ceilInprocCallAllocs = 8.0
	// Heap bytes per TCP RPC round trip of a 64 KiB payload, both sides:
	// the callee's receive lands in a pooled frame that goes back to the
	// pool after the handler, so what is left is per-call bookkeeping (the
	// timer, the response channel, the small response frame). 74,144 B when
	// every received frame was a fresh zeroed make.
	ceilTCPCallBytes = 4 << 10
)

// skipUnderRace: the race detector's instrumentation allocates on its own,
// so the ceilings are asserted only in pure builds (ci.sh's `go test ./...`
// pass; the -race pass skips them).
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocs/op ceilings are measured without the race detector")
	}
}

func TestStagePutAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	h, img, cleanup, err := stagePutEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	allocs := testing.AllocsPerRun(50, func() {
		if err := stagePutOp(h, img); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("stage put: %.1f allocs/op (ceiling %.1f)", allocs, ceilStagePutAllocs)
	if allocs > ceilStagePutAllocs {
		t.Errorf("stage put allocs/op = %.1f, ceiling %.1f", allocs, ceilStagePutAllocs)
	}
}

// TestCompressedStagePutAllocsCeiling holds the delta-compressed stage path
// to a pooled-steady-state allocation budget. The compressed path adds an
// XOR scratch copy, the wire-encode buffer, and the Remember base — all
// bufpool-recycled — on top of the raw path, so an unpooled buffer anywhere
// in the codec plumbing shows up here as O(10) extra allocs/op.
func TestCompressedStagePutAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	h, img, cleanup, err := stagePutEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if err := h.SetCodec("delta"); err != nil {
		t.Fatal(err)
	}
	// Warm the pools and the delta base history before measuring.
	for i := 0; i < 5; i++ {
		if err := stagePutOp(h, img); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := stagePutOp(h, img); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("compressed stage put: %.1f allocs/op (ceiling %.1f)", allocs, ceilCompressedStageAllocs)
	if allocs > ceilCompressedStageAllocs {
		t.Errorf("compressed stage put allocs/op = %.1f, ceiling %.1f", allocs, ceilCompressedStageAllocs)
	}
}

// TestBatchedStageAllocsCeiling holds the coalescing stage path to its
// amortized per-block allocation budget: 64 small blocks staged into
// coalesced frames plus the Flush barrier, measured per block. A fresh
// (unpooled) payload or frame buffer per batch, or any per-block goroutine
// sneaking back in, shows up here immediately.
func TestBatchedStageAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	h, cleanup, err := stageBatchEnv("batch-allocs")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	const blocks = 64
	data := make([]byte, 4<<10)
	for i := range data {
		data[i] = byte(i * 131)
	}
	// Warm the pools and the per-target batch plumbing before measuring.
	for i := 0; i < 3; i++ {
		if err := stageBatchOp(h, blocks, data); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := stageBatchOp(h, blocks, data); err != nil {
			t.Fatal(err)
		}
	}) / blocks
	t.Logf("batched stage: %.2f allocs/block (ceiling %.1f)", allocs, ceilBatchedStagePerBlockAllocs)
	if allocs > ceilBatchedStagePerBlockAllocs {
		t.Errorf("batched stage allocs/block = %.2f, ceiling %.1f", allocs, ceilBatchedStagePerBlockAllocs)
	}
}

func TestBulkPullAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	puller, bulk, cleanup, err := bulkPullEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	dst := make([]byte, bulk.Size)
	allocs := testing.AllocsPerRun(50, func() {
		if err := puller.PullBulkInto(bulk, dst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("bulk pull: %.1f allocs/op (ceiling %.1f)", allocs, ceilBulkPullAllocs)
	if allocs > ceilBulkPullAllocs {
		t.Errorf("bulk pull allocs/op = %.1f, ceiling %.1f", allocs, ceilBulkPullAllocs)
	}
}

func TestInprocCallAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	net := na.NewInprocNetwork()
	cEP, err := net.Listen("micro-caller")
	if err != nil {
		t.Fatal(err)
	}
	sEP, err := net.Listen("micro-callee")
	if err != nil {
		t.Fatal(err)
	}
	caller, callee := mercury.New(cEP), mercury.New(sEP)
	defer caller.Close()
	defer callee.Close()
	callee.Register("echo", func(req mercury.Request) ([]byte, error) { return req.Payload, nil })
	payload := make([]byte, 512)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := caller.Call(callee.Addr(), "echo", payload, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("inproc call: %.1f allocs/op (ceiling %.1f)", allocs, ceilInprocCallAllocs)
	if allocs > ceilInprocCallAllocs {
		t.Errorf("inproc call allocs/op = %.1f, ceiling %.1f", allocs, ceilInprocCallAllocs)
	}
}

func TestTCPCallBytesCeiling(t *testing.T) {
	skipUnderRace(t)
	cEP, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sEP, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	caller, callee := mercury.New(cEP), mercury.New(sEP)
	defer caller.Close()
	defer callee.Close()
	callee.Register("sink", func(req mercury.Request) ([]byte, error) { return nil, nil })
	payload := make([]byte, 64<<10)
	call := func() {
		if _, err := caller.Call(callee.Addr(), "sink", payload, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // dial, warm the pools and the metric caches
		call()
	}
	// Enough calls that the one pool miss a GC cycle can cause (sync.Pool
	// drops its contents over two cycles) stays far below the ceiling.
	const calls = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("64 KiB tcp call: %.0f B allocated/op (ceiling %d)", perCall, ceilTCPCallBytes)
	if perCall > ceilTCPCallBytes {
		t.Errorf("64 KiB tcp call allocates %.0f B/op, ceiling %d", perCall, ceilTCPCallBytes)
	}
}

// TestBufpoolCycleAllocsCeiling: a steady-state recycle of a large class
// allocates neither the payload nor a slice header on the Put side. Under
// the race detector sync.Pool drops Puts at random, so a Get can miss.
func TestBufpoolCycleAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	bufpool.Put(bufpool.Get(1 << 20))
	allocs := testing.AllocsPerRun(100, func() {
		x := bufpool.Get(1 << 20)
		x[0] = 1
		bufpool.Put(x)
	})
	if allocs >= 1 {
		t.Fatalf("get/put cycle allocates %.1f times per op", allocs)
	}
}

func TestCompositeAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	world, imgs := compositeEnv(64)
	allocs := testing.AllocsPerRun(20, func() {
		if err := compositeOp(world, imgs); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("composite: %.1f allocs/op (ceiling %.1f)", allocs, ceilCompositeAllocs)
	if allocs > ceilCompositeAllocs {
		t.Errorf("composite allocs/op = %.1f, ceiling %.1f", allocs, ceilCompositeAllocs)
	}
}

// TestIsoExecuteAllocsCeiling holds a warm iso execute — extraction and
// rasterization of the gs_iso_inproc shape on the pipeline's workspace — to
// a constant number of allocations: the same for the full block set as for
// an eighth of it, i.e. none per block, voxel or triangle. A slice grown per
// triangle, a per-block mesh or a fresh framebuffer shows here at once.
func TestIsoExecuteAllocsCeiling(t *testing.T) {
	skipUnderRace(t)
	blocks, err := grayScottSlabs(64, 200, 16)
	if err != nil {
		t.Fatal(err)
	}
	var perRun [2]float64
	var triangles [2]int
	for k, set := range [][]*vtk.ImageData{blocks, blocks[7:9]} {
		exec, cleanup, err := isoExecuteEnv(set)
		if err != nil {
			t.Fatal(err)
		}
		if triangles[k], err = exec(); err != nil { // warm: sizes the workspace
			t.Fatal(err)
		}
		perRun[k] = testing.AllocsPerRun(5, func() {
			if _, err := exec(); err != nil {
				t.Fatal(err)
			}
		})
		cleanup()
	}
	t.Logf("iso execute: %.0f allocs/op at %d triangles, %.0f at %d (ceiling %.0f)",
		perRun[0], triangles[0], perRun[1], triangles[1], ceilIsoExecuteAllocs)
	if triangles[1] == 0 || triangles[0] < 4*triangles[1] {
		t.Fatalf("block sets extract %d and %d triangles: not two sizes apart", triangles[0], triangles[1])
	}
	if perRun[0] != perRun[1] {
		t.Errorf("allocs/op depend on the data: %.0f at %d triangles, %.0f at %d", perRun[0], triangles[0], perRun[1], triangles[1])
	}
	if perRun[0] > ceilIsoExecuteAllocs {
		t.Errorf("iso execute allocs/op = %.0f, ceiling %.0f", perRun[0], ceilIsoExecuteAllocs)
	}
}
