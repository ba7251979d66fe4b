package e2e

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"colza/internal/collectives"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/ssg"
)

// chaosPipeline is the instrumented backend of the chaos suite. It
// deduplicates staged blocks on (iteration, block id) — the contract that
// makes the client's at-least-once stage retry safe — and it counts every
// lifecycle violation: double activation, stage/execute on an inactive
// instance. A chaos run asserts all counters stay zero while faults fly.
type chaosPipeline struct {
	mu         sync.Mutex
	ctx        core.IterationContext
	active     bool
	blocks     map[uint64]map[int]bool // iteration → staged block ids
	doubleActs int
	staleOps   int // stage/execute observed while inactive
}

func (c *chaosPipeline) Activate(ctx core.IterationContext) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active {
		c.doubleActs++
		return fmt.Errorf("chaos: double activation (iter %d over %d)", ctx.Iteration, c.ctx.Iteration)
	}
	c.active = true
	c.ctx = ctx
	return nil
}

func (c *chaosPipeline) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.active {
		c.staleOps++
		return fmt.Errorf("chaos: stage on inactive pipeline")
	}
	if c.blocks == nil {
		c.blocks = map[uint64]map[int]bool{}
	}
	if c.blocks[it] == nil {
		c.blocks[it] = map[int]bool{}
	}
	c.blocks[it][meta.BlockID] = true // duplicates collapse here
	return nil
}

func (c *chaosPipeline) Execute(it uint64) (core.ExecResult, error) {
	c.mu.Lock()
	if !c.active {
		c.staleOps++
		c.mu.Unlock()
		return core.ExecResult{}, fmt.Errorf("chaos: execute on inactive pipeline")
	}
	ctx := c.ctx
	local := len(c.blocks[it])
	c.mu.Unlock()
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(local))
	total, err := ctx.Comm.AllReduce(1000, buf, collectives.SumInt64)
	if err != nil {
		return core.ExecResult{}, err
	}
	return core.ExecResult{Summary: map[string]float64{
		"blocks": float64(local),
		"total":  float64(binary.LittleEndian.Uint64(total)),
	}}, nil
}

func (c *chaosPipeline) Deactivate(it uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.active = false
	delete(c.blocks, it)
	return nil
}

func (c *chaosPipeline) Destroy() error { return nil }

func (c *chaosPipeline) violations() (int, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.doubleActs, c.staleOps
}

var (
	chaosMu    sync.Mutex
	chaosInsts []*chaosPipeline
)

func init() {
	core.RegisterPipelineType("chaos", func(cfg json.RawMessage) (core.Backend, error) {
		p := &chaosPipeline{}
		chaosMu.Lock()
		chaosInsts = append(chaosInsts, p)
		chaosMu.Unlock()
		return p, nil
	})
}

func assertNoViolations(t *testing.T) {
	t.Helper()
	chaosMu.Lock()
	defer chaosMu.Unlock()
	for i, p := range chaosInsts {
		da, so := p.violations()
		if da != 0 {
			t.Errorf("instance %d: %d double activations", i, da)
		}
		if so != 0 {
			t.Errorf("instance %d: %d stage/execute calls on inactive pipeline", i, so)
		}
	}
}

func chaosSSG(seed int64) ssg.Config {
	return ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 75 * time.Millisecond, SuspectPeriods: 10, Seed: seed}
}

// runChaosIteration drives one activate → stage → execute → deactivate loop
// to completion, retrying activate at the application level until deadline —
// the no-lost-iterations discipline a resilient simulation uses.
func runChaosIteration(t *testing.T, h *core.DistributedPipelineHandle, it uint64, blocks int, deadline time.Time) int {
	t.Helper()
	var view core.MemberView
	for {
		v, err := h.Activate(it)
		if err == nil {
			view = v
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("iteration %d lost: activate never succeeded: %v", it, err)
		}
	}
	for b := 0; b < blocks; b++ {
		data := []byte(fmt.Sprintf("it%d-block%d", it, b))
		if err := h.Stage(it, core.BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data); err != nil {
			t.Fatalf("iteration %d stage %d: %v", it, b, err)
		}
	}
	// Re-stage block 0, simulating a client retry whose first response was
	// lost: at-least-once staging must collapse on the server.
	if err := h.Stage(it, core.BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, []byte("dup")); err != nil {
		t.Fatalf("iteration %d duplicate stage: %v", it, err)
	}
	res, err := h.Execute(it)
	if err != nil {
		t.Fatalf("iteration %d execute: %v", it, err)
	}
	if len(res) != len(view.Members) {
		t.Fatalf("iteration %d: %d results from a %d-member view", it, len(res), len(view.Members))
	}
	for _, r := range res {
		if int(r.Summary["total"]) != blocks {
			t.Fatalf("iteration %d: allreduced %v distinct blocks, staged %d — blocks lost or duplicated", it, r.Summary["total"], blocks)
		}
	}
	if err := h.Deactivate(it); err != nil {
		t.Fatalf("iteration %d deactivate: %v", it, err)
	}
	return len(view.Members)
}

// TestChaosFaultPlanOnControlPlane aims scripted faults at individual 2PC
// and staging RPCs — a lost prepare, a lost commit (forcing the
// partial-commit cleanup path), a lost stage request, delayed executes —
// and requires every iteration to complete exactly once anyway.
func TestChaosFaultPlanOnControlPlane(t *testing.T) {
	net := na.NewInprocNetwork()
	var servers []*core.Server
	for i := 0; i < 3; i++ {
		boot := ""
		if i > 0 {
			boot = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("fp%d", i), core.ServerConfig{Bootstrap: boot, SSG: chaosSSG(int64(i + 1))})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		defer s.Shutdown()
	}
	if err := core.WaitMembers(servers, 3, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	ep, _ := net.Listen("fp-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	reg := obs.NewRegistry()
	client.SetObserver(reg)
	admin := core.NewAdminClient(mi)
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "viz", "chaos", nil); err != nil {
			t.Fatal(err)
		}
	}

	// The fault plan: every rule targets a named control-plane RPC via the
	// Mercury frame classifier; occurrence counters make the run replay.
	plan := na.NewFaultPlan(11).SetClassifier(func(data []byte) string {
		name, _ := mercury.RPCNameOf(data)
		return name
	})
	plan.Add(na.FaultRule{Label: "colza::prepare", Nth: 1, Drop: true})                     // 0: lose the very first prepare
	plan.Add(na.FaultRule{Label: "colza::commit", Nth: 2, Drop: true})                      // 1: partial commit → cleanup path
	plan.Add(na.FaultRule{Label: "colza::stage", Nth: 3, Drop: true})                       // 2: client stage retry path
	plan.Add(na.FaultRule{Label: "colza::execute", Count: 2, Delay: 40 * time.Millisecond}) // 3: slow executes
	net.SetFaultPlan(plan)

	h := client.Handle("viz", servers[0].Addr())
	h.SetTimeout(250 * time.Millisecond)
	const iters, blocks = 6, 6
	for it := uint64(1); it <= iters; it++ {
		n := runChaosIteration(t, h, it, blocks, time.Now().Add(20*time.Second))
		if n != 3 {
			t.Fatalf("iteration %d ran on %d members, want 3", it, n)
		}
	}
	// The faults must actually have fired, or this test proves nothing.
	for rule, want := range map[int]int{0: 1, 1: 1, 2: 1, 3: 2} {
		if got := plan.Fired(rule); got < want {
			t.Errorf("fault rule %d fired %d times, want >= %d (%s)", rule, got, want, plan)
		}
	}
	assertNoViolations(t)

	// Obs-derived invariants: the client's registry must show the recovery
	// the fault plan forced, with timings to match.
	snap := reg.Snapshot()
	if got := snap.Counters["colza.stage.retries{pipeline=viz}"]; got < 1 {
		t.Errorf("dropped stage produced %d stage retries, want >= 1", got)
	}
	if got := snap.Counters["colza.activate.retries{pipeline=viz}"]; got < 1 {
		t.Errorf("dropped prepare/commit produced %d activate retries, want >= 1", got)
	}
	stageHist := snap.Histograms["span.stage{pipeline=viz}"]
	if want := int64(iters * (blocks + 1)); stageHist.Count != want {
		t.Errorf("stage span count = %d, want %d", stageHist.Count, want)
	}
	// The dropped stage RPC stalls its (single, retry-spanning) Stage call
	// for a full timeout before the retry lands, so the stage p99 must sit
	// at timeout scale while the p50 stays well under it — the "one stall,
	// quick recovery" shape.
	p50, p99 := stageHist.Quantile(0.50), stageHist.Quantile(0.99)
	if p99 < float64(100*time.Millisecond) {
		t.Errorf("stage p99 = %v, want >= 100ms (a stage stalled a full 250ms timeout)", time.Duration(p99))
	}
	if p50 >= float64(100*time.Millisecond) {
		t.Errorf("stage p50 = %v, want < 100ms (only one stage should have stalled)", time.Duration(p50))
	}

	// The trace export is the structured view of the same run: round-trip
	// it through JSON lines and check the per-iteration timeline.
	var buf bytes.Buffer
	if err := reg.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ParseTraceJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	okActivates := map[uint64]bool{}
	slowStages := 0
	for _, r := range recs {
		if r.Name == "activate" && r.Err == "" {
			okActivates[r.Iteration] = true
		}
		if r.Name == "stage" && time.Duration(r.DurNS) >= 250*time.Millisecond {
			slowStages++
		}
	}
	for it := uint64(1); it <= iters; it++ {
		if !okActivates[it] {
			t.Errorf("trace has no successful activate span for iteration %d", it)
		}
	}
	if slowStages < 1 {
		t.Errorf("trace shows no stage span stalled past the 250ms timeout")
	}

	// Server-side registries saw the work too: every staged block (including
	// the collapsed duplicates) produced a srv.stage span on some server.
	var srvStage int64
	for _, s := range servers {
		srvStage += s.Obs.Snapshot().Histograms["span.srv.stage{pipeline=viz}"].Count
	}
	if want := int64(iters * (blocks + 1)); srvStage < want {
		t.Errorf("servers recorded %d srv.stage spans, want >= %d", srvStage, want)
	}
}

// TestChaosChurnCrashAndPartition runs the full elastic loop while servers
// join and leave concurrently, one server crashes outright (both its
// endpoints die), and the client is one-way partitioned from a server for a
// stretch. Every iteration must complete, nothing may double-activate, and
// the staging area must converge cleanly once the chaos stops.
func TestChaosChurnCrashAndPartition(t *testing.T) {
	net := na.NewInprocNetwork()
	var servers []*core.Server
	for i := 0; i < 3; i++ {
		boot := ""
		if i > 0 {
			boot = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("churn%d", i), core.ServerConfig{Bootstrap: boot, SSG: chaosSSG(int64(i + 1))})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		defer s.Shutdown()
	}
	if err := core.WaitMembers(servers, 3, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	ep, _ := net.Listen("churn-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "viz", "chaos", nil); err != nil {
			t.Fatal(err)
		}
	}

	// Churn: a background goroutine cycles joiners through join → host the
	// pipeline → leave, concurrently with the iteration loop.
	stop := make(chan struct{})
	var churnWG sync.WaitGroup
	var joinerMu sync.Mutex
	var joiners []*core.Server
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s, err := core.StartInprocServer(net, fmt.Sprintf("joiner%d", i), core.ServerConfig{Bootstrap: servers[0].Addr(), SSG: chaosSSG(int64(100 + i))})
			if err != nil {
				return
			}
			joinerMu.Lock()
			joiners = append(joiners, s)
			joinerMu.Unlock()
			_ = admin.CreatePipeline(s.Addr(), "viz", "chaos", nil)
			time.Sleep(120 * time.Millisecond)
			_ = admin.RequestLeave(s.Addr())
			time.Sleep(120 * time.Millisecond)
		}
	}()
	defer func() {
		joinerMu.Lock()
		defer joinerMu.Unlock()
		for _, s := range joiners {
			s.Shutdown()
		}
	}()

	h := client.Handle("viz", servers[0].Addr())
	h.SetTimeout(300 * time.Millisecond)
	const iters, blocks = 8, 5
	for it := uint64(1); it <= iters; it++ {
		switch it {
		case 4:
			// Server 1 crashes: both its endpoints die mid-run, no
			// announcement. SWIM must evict it and activates renegotiate.
			if err := net.Crash("churn1"); err != nil {
				t.Fatal(err)
			}
			if err := net.Crash("churn1:mona"); err != nil {
				t.Fatal(err)
			}
		case 6:
			// One-way partition: the client cannot reach server 2 for a
			// while (server 2 still answers everyone else). Heals itself.
			net.SetFaultPlan(na.NewFaultPlan(1).Add(na.FaultRule{From: "inproc://churn-client", To: servers[2].Addr(), Drop: true}))
			time.AfterFunc(400*time.Millisecond, func() { net.SetFaultPlan(nil) })
		}
		runChaosIteration(t, h, it, blocks, time.Now().Add(30*time.Second))
	}

	// Stop the churn and converge: survivors are servers 0 and 2 plus any
	// joiner whose deferred leave still needs to drain.
	close(stop)
	churnWG.Wait()
	joinerMu.Lock()
	for _, s := range joiners {
		_ = admin.RequestLeave(s.Addr()) // idempotent for those already leaving
	}
	joinerMu.Unlock()
	survivors := []*core.Server{servers[0], servers[2]}
	if err := core.WaitMembers(survivors, 2, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Clean convergence: a final quiet iteration spans exactly the two
	// survivors and completes without faults.
	if n := runChaosIteration(t, h, iters+1, blocks, time.Now().Add(20*time.Second)); n != 2 {
		t.Fatalf("post-chaos iteration ran on %d members, want 2", n)
	}
	assertNoViolations(t)
}
