package core

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
)

// slowPipeline sleeps inside Stage/Execute and records whether either ever
// observed the pipeline already deactivated — the stage-vs-deactivate race
// this file exists to pin down.
type slowPipeline struct {
	mu          sync.Mutex
	delay       time.Duration
	deactivated bool
	violations  int
	stages      int
}

func (s *slowPipeline) check() {
	s.mu.Lock()
	if s.deactivated {
		s.violations++
	}
	s.mu.Unlock()
}

func (s *slowPipeline) Activate(ctx IterationContext) error {
	s.mu.Lock()
	s.deactivated = false
	s.mu.Unlock()
	return nil
}

func (s *slowPipeline) Stage(it uint64, meta BlockMeta, data []byte) error {
	s.check()
	time.Sleep(s.delay)
	s.check()
	s.mu.Lock()
	s.stages++
	s.mu.Unlock()
	return nil
}

func (s *slowPipeline) Execute(it uint64) (ExecResult, error) {
	s.check()
	time.Sleep(s.delay)
	s.check()
	return ExecResult{}, nil
}

func (s *slowPipeline) Deactivate(it uint64) error {
	s.mu.Lock()
	s.deactivated = true
	s.mu.Unlock()
	return nil
}

func (s *slowPipeline) Destroy() error { return nil }

var (
	slowMu    sync.Mutex
	slowInsts []*slowPipeline
)

func init() {
	RegisterPipelineType("slow", func(cfg json.RawMessage) (Backend, error) {
		p := &slowPipeline{delay: 150 * time.Millisecond}
		slowMu.Lock()
		slowInsts = append(slowInsts, p)
		slowMu.Unlock()
		return p, nil
	})
}

func lastSlow(t *testing.T) *slowPipeline {
	t.Helper()
	slowMu.Lock()
	defer slowMu.Unlock()
	if len(slowInsts) == 0 {
		t.Fatal("no slow pipeline instantiated")
	}
	return slowInsts[len(slowInsts)-1]
}

// TestDeactivateDrainsInflightStage is the regression for the
// stage/execute-vs-deactivate race: a deactivate arriving while Stage is
// still running on the backend must wait for it, not tear the backend and
// communicator down under it. Reverting the drain logic in
// handleDeactivate makes this fail (violations > 0).
func TestDeactivateDrainsInflightStage(t *testing.T) {
	d := deploy(t, 1)
	if err := d.admin.CreatePipeline(d.servers[0].Addr(), "viz", "slow", nil); err != nil {
		t.Fatal(err)
	}
	sp := lastSlow(t)
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(5 * time.Second)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	st := h.NBStage(1, BlockMeta{BlockID: 0}, []byte("block"))
	// Let the stage RPC reach the backend and start its sleep, then race a
	// deactivate against it.
	time.Sleep(30 * time.Millisecond)
	start := time.Now()
	if err := h.Deactivate(1); err != nil {
		t.Fatalf("deactivate: %v", err)
	}
	if _, err := st.Wait(); err != nil {
		t.Fatalf("stage: %v", err)
	}
	sp.mu.Lock()
	violations, stages := sp.violations, sp.stages
	sp.mu.Unlock()
	if violations != 0 {
		t.Fatalf("backend saw %d stage/execute calls on a deactivated pipeline", violations)
	}
	if stages != 1 {
		t.Fatalf("stages = %d, want 1", stages)
	}
	// Deactivate must have actually waited out the ~150ms backend sleep.
	if waited := time.Since(start); waited < 80*time.Millisecond {
		t.Fatalf("deactivate returned after %v; it did not drain the in-flight stage", waited)
	}
}

// TestStageRejectedWhileDraining: once a deactivate has begun draining,
// newly arriving stage/execute RPCs are turned away with ErrNotActive
// instead of being accepted into a dying iteration.
func TestStageRejectedWhileDraining(t *testing.T) {
	d := deploy(t, 1)
	if err := d.admin.CreatePipeline(d.servers[0].Addr(), "viz", "slow", nil); err != nil {
		t.Fatal(err)
	}
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(5 * time.Second)
	h.SetStageRetry(RetryPolicy{Max: 1})
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	first := h.NBStage(1, BlockMeta{BlockID: 0}, []byte("a"))
	time.Sleep(30 * time.Millisecond)
	de := h.NBDeactivate(1)
	time.Sleep(30 * time.Millisecond) // deactivate is now draining behind the first stage
	err := h.Stage(1, BlockMeta{BlockID: 1}, []byte("b"))
	if err == nil || !strings.Contains(err.Error(), "no active iteration") {
		t.Fatalf("stage during drain = %v, want ErrNotActive", err)
	}
	if _, err := first.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := de.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicatePrepareSecondClientRejected pins the 2PC hole where an
// equal-epoch prepare from a second client silently overwrote a pending
// prepare; a retry from the same client must stay idempotent.
func TestDuplicatePrepareSecondClientRejected(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	view, err := d.client.FetchView(d.servers[0].Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	view.Epoch = 999
	prep := appendPrepare(nil, "viz", 1, view)

	type vote struct {
		Yes    bool
		Reason string
	}
	sendPrepare := func(mi *margo.Instance) vote {
		t.Helper()
		raw, err := mi.CallProvider(d.servers[0].Addr(), ProviderID, "prepare", prep, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		yes, reason, err := decodeVote(raw)
		if err != nil {
			t.Fatal(err)
		}
		return vote{yes, reason}
	}

	if v := sendPrepare(d.clientM); !v.Yes {
		t.Fatalf("first prepare rejected: %s", v.Reason)
	}
	// Same client retries the identical prepare (its vote was lost in
	// transit): idempotent, still yes.
	if v := sendPrepare(d.clientM); !v.Yes {
		t.Fatalf("idempotent re-prepare rejected: %s", v.Reason)
	}
	// A different client racing the same epoch must be refused.
	ep2, _ := d.net.Listen("client-b")
	m2 := margo.NewInstance(ep2)
	defer m2.Finalize()
	if v := sendPrepare(m2); v.Yes {
		t.Fatal("second client stole a pending prepare at the same epoch")
	} else if !strings.Contains(v.Reason, "already prepared") {
		t.Fatalf("reason = %q", v.Reason)
	}
	// Clean up the pending prepare.
	ab := appendEpoch(nil, "viz", 1, 999)
	if _, err := d.clientM.CallProvider(d.servers[0].Addr(), ProviderID, "abort", ab, time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastReportsAllFailures: a broadcast over a view with several
// dead members must name every failure, not just the last one.
func TestBroadcastReportsAllFailures(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(time.Second)
	h.SetView(MemberView{Epoch: 1, Members: []string{"inproc://dead-1", "inproc://dead-2"}})
	_, err := h.Execute(1)
	if err == nil {
		t.Fatal("execute over dead view must fail")
	}
	for _, addr := range []string{"inproc://dead-1", "inproc://dead-2"} {
		if !strings.Contains(err.Error(), addr) {
			t.Fatalf("error %q does not mention %s", err, addr)
		}
	}
}

// TestRetryPolicyBackoffBounds: backoff grows exponentially from Base and
// never exceeds Cap (plus jitter fraction).
func TestRetryPolicyBackoffBounds(t *testing.T) {
	rp := RetryPolicy{Max: 6, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond, Jitter: 0}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for k, w := range want {
		if got := rp.Backoff(k, nil); got != w*time.Millisecond {
			t.Fatalf("backoff(%d) = %v, want %v", k, got, w*time.Millisecond)
		}
	}
}

// TestErrorClassification maps the stack's failure modes to their classes.
func TestErrorClassification(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	// Remote: handler ran and refused (stage without an active iteration).
	msg := appendStageBatchMsg(nil, "viz", 9, []stageBatchRec{{}}, mercury.Bulk{})
	_, err := d.clientM.CallProvider(d.servers[0].Addr(), ProviderID, "stage", msg, time.Second)
	if Classify(err) != ClassRemote || Retryable(err) {
		t.Fatalf("remote refusal classified as %v retryable=%v", Classify(err), Retryable(err))
	}
	// Unreachable: the address never existed.
	_, err = d.clientM.CallProvider("inproc://nowhere", ProviderID, "members", nil, time.Second)
	if Classify(err) != ClassUnreachable || !Retryable(err) {
		t.Fatalf("no-route classified as %v", Classify(err))
	}
	// Timeout: the server exists but the iteration RPC never answers (crash
	// after accept is simulated by a dead-but-known endpoint).
	deadAddr := d.servers[0].Addr()
	d.servers[0].Shutdown()
	d.servers = nil
	_, err = d.clientM.CallProvider(deadAddr, ProviderID, "members", nil, 100*time.Millisecond)
	if Classify(err) != ClassTimeout || !Retryable(err) {
		t.Fatalf("timeout classified as %v (%v)", Classify(err), err)
	}
	if Classify(nil) != ClassOK {
		t.Fatal("nil error must be ClassOK")
	}
	if Retryable(errors.New("local junk")) {
		t.Fatal("unclassified local errors must not be retryable")
	}
}

// rpcName labels a frame for a fault plan by the RPC it requests ("" for
// anything else).
func rpcName(frame []byte) string {
	name, _ := mercury.RPCNameOf(frame)
	return name
}

// TestRefuseRuleIsUnreachable: a Refuse rule fails each send it selects at
// once with na.ErrNoRoute, which Classify reads as unreachable, and its
// Label, Nth and Count pick which sends those are — on the in-process
// network and on a dual endpoint alike.
func TestRefuseRuleIsUnreachable(t *testing.T) {
	for _, tr := range []struct {
		name string
		pair func(t *testing.T, plan *na.FaultPlan) (a, b na.Endpoint)
	}{
		{"inproc", func(t *testing.T, plan *na.FaultPlan) (na.Endpoint, na.Endpoint) {
			n := na.NewInprocNetwork()
			n.SetFaultPlan(plan)
			a, _ := n.Listen("a")
			b, _ := n.Listen("b")
			return a, b
		}},
		{"sm+tcp", func(t *testing.T, plan *na.FaultPlan) (na.Endpoint, na.Endpoint) {
			a, err := na.ListenDual("127.0.0.1:0", "", "a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := na.ListenDual("127.0.0.1:0", "", "b")
			if err != nil {
				a.Close()
				t.Fatal(err)
			}
			a.SetFaultPlan(plan)
			return a, b
		}},
	} {
		for _, tc := range []struct {
			name    string
			rule    na.FaultRule
			calls   string // the RPC each send calls
			refused string // 'r' where that send is refused, '.' where it is answered
		}{
			{"label", na.FaultRule{Label: "x"}, "xyx", "r.r"},
			{"nth", na.FaultRule{Label: "x", Nth: 2}, "xxx", ".r."},
			{"count", na.FaultRule{Count: 2}, "yxy", "rr."},
		} {
			t.Run(tr.name+"/"+tc.name, func(t *testing.T) {
				plan := na.NewFaultPlan(1).SetClassifier(rpcName)
				ea, eb := tr.pair(t, plan)
				a, b := mercury.New(ea), mercury.New(eb)
				defer func() { a.Close(); b.Close() }()
				for _, name := range []string{"x", "y"} {
					b.Register(name, func(mercury.Request) ([]byte, error) { return []byte("ok"), nil })
				}
				rule := tc.rule
				rule.From, rule.Refuse = a.Addr(), true // b's responses pass
				plan.Add(rule)
				for i, name := range tc.calls {
					start := time.Now()
					_, err := a.Call(b.Addr(), string(name), nil, 5*time.Second)
					if tc.refused[i] == '.' {
						if err != nil {
							t.Fatalf("send %d (%c): %v", i, name, err)
						}
						continue
					}
					if !errors.Is(err, na.ErrNoRoute) || Classify(err) != ClassUnreachable {
						t.Fatalf("send %d (%c): %v, class %v; want ErrNoRoute, unreachable", i, name, err, Classify(err))
					}
					if el := time.Since(start); el > time.Second {
						t.Fatalf("send %d (%c) was refused after %v, not at once", i, name, el)
					}
				}
				if want := strings.Count(tc.refused, "r"); plan.Fired(0) != want {
					t.Fatalf("rule fired %d times, want %d (%s)", plan.Fired(0), want, plan)
				}
			})
		}
	}
}

// countingStateful counts ExportState/ImportState calls to pin the
// exactly-once hand-over contract of a deferred leave.
type countingStateful struct {
	statefulPipeline
	exports int
	imports int
}

func (c *countingStateful) ExportState() ([]byte, error) {
	c.mu.Lock()
	c.exports++
	c.mu.Unlock()
	return c.statefulPipeline.ExportState()
}

func (c *countingStateful) ImportState(data []byte) error {
	c.mu.Lock()
	c.imports++
	c.mu.Unlock()
	return c.statefulPipeline.ImportState(data)
}

var (
	countMu    sync.Mutex
	countInsts []*countingStateful
)

func init() {
	RegisterPipelineType("countstate", func(cfg json.RawMessage) (Backend, error) {
		p := &countingStateful{}
		countMu.Lock()
		countInsts = append(countInsts, p)
		countMu.Unlock()
		return p, nil
	})
}

// TestDeferredLeaveMigratesOnceAndRejectsPrepare covers the full deferred
// leave contract: a leave during an active iteration defers until
// deactivate, the leaving server rejects new prepares meanwhile, and
// stateful pipeline state reaches the survivor's instance exactly once.
func TestDeferredLeaveMigratesOnceAndRejectsPrepare(t *testing.T) {
	d := deploy(t, 2)
	countMu.Lock()
	base := len(countInsts)
	countMu.Unlock()
	for _, s := range d.servers {
		if err := d.admin.CreatePipeline(s.Addr(), "acc", "countstate", nil); err != nil {
			t.Fatal(err)
		}
		if err := d.admin.CreatePipeline(s.Addr(), "idle", "mock", nil); err != nil {
			t.Fatal(err)
		}
	}
	countMu.Lock()
	insts := countInsts[base:]
	countMu.Unlock()
	if len(insts) != 2 {
		t.Fatalf("%d countstate instances", len(insts))
	}

	h := d.client.Handle("acc", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ { // one block per server
		if err := h.Stage(1, BlockMeta{BlockID: b}, make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Leave mid-iteration: must defer.
	if err := d.admin.RequestLeave(d.servers[1].Addr()); err != nil {
		t.Fatal(err)
	}
	if !d.servers[1].Provider.Leaving() {
		t.Fatal("server not marked leaving")
	}
	if len(d.servers[1].Group.Members()) != 2 {
		t.Fatal("departure was not deferred: membership already changed")
	}
	// While leaving, the server votes down any new prepare — here on a
	// completely idle pipeline, so the refusal is the leave, not ErrBusy.
	h2 := d.client.Handle("idle", d.servers[0].Addr())
	h2.SetTimeout(time.Second)
	h2.mu.Lock()
	h2.viewRetry.Max = 2
	h2.mu.Unlock()
	_, err := h2.Activate(7)
	if !errors.Is(err, ErrActivateFailed) || !strings.Contains(err.Error(), "leaving") {
		t.Fatalf("activate on leaving group = %v, want leave refusal", err)
	}
	// The frozen iteration still completes across both servers.
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	// Departure now completes and state lands on the survivor.
	if err := WaitMembers(d.servers[:1], 1, 10*time.Second); err != nil {
		t.Fatalf("leaving server never left: %v", err)
	}
	if _, err := h.Activate(2); err != nil {
		t.Fatal(err)
	}
	res, err = h.Execute(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(2); err != nil {
		t.Fatal(err)
	}
	if got := res[0].Summary["total"]; got != 200 {
		t.Fatalf("survivor total = %v, want 200 (state lost or duplicated)", got)
	}
	// Exactly-once import: the survivor imported the leaver's state once, at
	// commit(2) — even if finishLeave is poked again (idempotence guard).
	// Exports are 3: both servers checkpointed at deactivate(1) (two-member
	// view; the survivor's round was refused by the leaver and counted) plus
	// the leaver's leave round; deactivate(2) sees a single-member view,
	// which checkpointSlot skips before exporting.
	d.servers[1].Provider.finishLeave(nil)
	var exports, imports int
	for _, p := range insts {
		p.mu.Lock()
		exports += p.exports
		imports += p.imports
		p.mu.Unlock()
	}
	if exports != 3 || imports != 1 {
		t.Fatalf("exports=%d imports=%d, want exactly 3 and 1", exports, imports)
	}
	// Recovery consumed the leaver's checkpoint on the survivor, and the
	// leaver never took the survivor's: it refused while leaving.
	if held := d.servers[0].Provider.HeldCheckpoints(); held != 0 {
		t.Fatalf("survivor still holds %d checkpoints, want 0 after recovery", held)
	}
	if held := d.servers[1].Provider.HeldCheckpoints(); held != 0 {
		t.Fatalf("leaver accepted %d checkpoints while leaving", held)
	}
}

// TestStageRetriesTransientFault: a dropped stage request (server never saw
// it) is retried under the handle's policy and eventually lands.
func TestStageRetriesTransientFault(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(200 * time.Millisecond)
	h.SetStageRetry(RetryPolicy{Max: 3, Base: 5 * time.Millisecond, Cap: 20 * time.Millisecond})
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	// Inject: refuse the first two outgoing stage calls at the client
	// (ErrNoRoute classifies as unreachable → retryable).
	plan := na.NewFaultPlan(1).SetClassifier(rpcName)
	plan.Add(na.FaultRule{From: d.clientM.Addr(), Label: margo.ProviderRPCName(ProviderID, "stage"), Count: 2, Refuse: true})
	d.net.SetFaultPlan(plan)
	defer d.net.SetFaultPlan(nil)
	if err := h.Stage(1, BlockMeta{Field: "x", BlockID: 0, Type: "raw"}, []byte("abcd")); err != nil {
		t.Fatalf("stage with retries: %v", err)
	}
	if plan.Fired(0) != 2 {
		t.Fatalf("refused %d stage calls, want 2 (%s)", plan.Fired(0), plan)
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Summary["total_bytes"] != 4 {
		t.Fatalf("total = %v, want 4", res[0].Summary["total_bytes"])
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

// TestActivateFailsOverWhenContactLeaves: a handle whose contact server
// departs must refresh its view through another member of the last pinned
// view instead of retrying the dead address forever.
func TestActivateFailsOverWhenContactLeaves(t *testing.T) {
	d := deploy(t, 3)
	for _, s := range d.servers {
		if err := d.admin.CreatePipeline(s.Addr(), "p", "mock", nil); err != nil {
			t.Fatal(err)
		}
	}
	h := d.client.Handle("p", d.servers[0].Addr())
	h.SetTimeout(300 * time.Millisecond)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	// The contact leaves the staging area (and, like a real daemon, stops
	// serving: its endpoints crash).
	if err := d.admin.RequestLeave(d.servers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	if err := d.net.Crash("srv0"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		view, err := h.Activate(2)
		if err == nil {
			if len(view.Members) != 2 {
				t.Fatalf("failover view has %d members, want 2", len(view.Members))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("activate never failed over past the departed contact: %v", err)
		}
	}
	if err := h.Deactivate(2); err != nil {
		t.Fatal(err)
	}
}
