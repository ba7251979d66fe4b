package e2e

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/sim"
	"colza/internal/ssg"
)

// arenaMaps counts this process's mappings of shared arenas (memfds), its
// own and its peers'.
func arenaMaps(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	return bytes.Count(maps, []byte("/memfd:colza-arena"))
}

// startSMServer launches one staging server whose RPC endpoint is dual: a
// unix socket next to the TCP one, and a bulk arena (the sm+tcp composite
// address ends up in the membership view, so peers and clients choose the
// socket when they dial). MoNA rides the same endpoint, so the servers
// composite over the unix socket.
func startSMServer(t *testing.T, bootstrap string) (*core.Server, *na.DualEndpoint) {
	t.Helper()
	rpcEP, err := na.ListenDual("127.0.0.1:0", "", "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.StartServer(rpcEP, nil, core.ServerConfig{
		Bootstrap: bootstrap,
		// Generous failure-detector settings, as in startTCPServer: under
		// -race scheduling stalls must not read as member failures.
		SSG: ssg.Config{GossipPeriod: 10 * time.Millisecond, PingTimeout: 200 * time.Millisecond, SuspectPeriods: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, rpcEP
}

// TestColzaOverSM runs the whole stack — SSG membership, 2PC activation,
// staging, MoNA collectives, IceT compositing, growth and scale-down —
// with every server listening on sm+tcp. All ranks are colocated, so every
// RPC connection must be to a unix socket and every staged block must be
// pulled from the exposer's arena with no bulk-pull RPC served, and
// shutdown must leave no arena mapped and no exposed region behind.
func TestColzaOverSM(t *testing.T) {
	// Runs after every shutdown below (LIFO): every endpoint's arena, and
	// every mapping of a peer's, must be gone once the deployment is down.
	before := arenaMaps(t)
	defer func() {
		if got := arenaMaps(t); got != before {
			t.Errorf("%d arena mappings after shutdown, want the %d before", got, before)
		}
	}()

	s0, _ := startSMServer(t, "")
	defer s0.Shutdown()
	s1, _ := startSMServer(t, s0.Addr())
	defer s1.Shutdown()
	if err := core.WaitMembers([]*core.Server{s0, s1}, 2, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	clientEP, err := na.ListenDual("127.0.0.1:0", "", "")
	if err != nil {
		t.Fatal(err)
	}
	mi := margo.NewInstance(clientEP)
	defer mi.Finalize()
	client := core.NewClient(mi)
	reg := obs.NewRegistry()
	client.SetObserver(reg)
	admin := core.NewAdminClient(mi)

	pcfg, _ := json.Marshal(catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: 64, Height: 64,
		ScalarRange: [2]float64{0, 32}, EmitImage: true,
	})
	for _, s := range []*core.Server{s0, s1} {
		if err := admin.CreatePipeline(s.Addr(), "viz", catalyst.IsoPipelineType, pcfg); err != nil {
			t.Fatal(err)
		}
	}

	h := client.Handle("viz", s0.Addr())
	h.SetTimeout(30 * time.Second)
	mb := sim.DefaultMandelbulb([3]int{16, 16, 8}, 4)

	runIteration(t, h, mb, 1, 2)

	// Grow to three servers, then iteration 2 uses all three.
	s2, _ := startSMServer(t, s0.Addr())
	defer s2.Shutdown()
	if err := core.WaitMembers([]*core.Server{s0, s1, s2}, 3, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreatePipeline(s2.Addr(), "viz", catalyst.IsoPipelineType, pcfg); err != nil {
		t.Fatal(err)
	}
	runIteration(t, h, mb, 2, 3)

	// Scale down via the admin interface; iteration 3 runs on two again.
	if err := admin.RequestLeave(s2.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := core.WaitMembers([]*core.Server{s0, s1}, 2, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	runIteration(t, h, mb, 3, 2)

	// Everything is colocated, so the client must have dialed the unix
	// socket of every server it talked to and never TCP.
	snap := reg.Snapshot()
	if got := snap.Counters["na.route.sm_preferred"]; got < 2 {
		t.Errorf("na.route.sm_preferred = %d, want >= 2 (client connections did not go to the unix sockets)", got)
	}
	if got := snap.Counters["na.route.tcp_fallback"]; got != 0 {
		t.Errorf("na.route.tcp_fallback = %d, want 0 (a colocated peer was dialed over TCP)", got)
	}
	// The client's endpoint has an arena, so its handle coalesced: every
	// flushed frame's payload must have been pulled out of the arena by its
	// server, and the chunked RPC path stays cold.
	var pulls int64
	classes := []*mercury.Class{mi.Class()}
	for _, s := range []*core.Server{s0, s1, s2} {
		pulls += s.Obs.Counter("na.shm.pull.local").Value()
		classes = append(classes, s.MI.Class())
	}
	flushes := snap.Counters["colza.stage.batch.flushes{pipeline=viz}"]
	served := snap.Counters["mercury.serve.count{rpc=__mercury/bulk_pull}"]
	if flushes < 2+3+2 || pulls < flushes || served != 0 {
		t.Errorf("colza.stage.batch.flushes = %d (want >= 7, a frame per rank an iteration), na.shm.pull.local total = %d (want >= flushes), bulk_pull RPCs served by the client = %d (want 0): bulk pulls not from the arena", flushes, pulls, served)
	}
	mercury.VerifyNoExposedLeaks(t, classes...)
}

// TestChaosStageRetryOverSM reruns the stage-retry buffer-ownership chaos
// scenario with the deployment on sm+tcp endpoints, where a handle coalesces
// (its regions are in the arena and cannot ride in a stage frame): injected
// drops of a stage request and a stage response force at-least-once
// whole-frame retries while the batch's payload stays exposed in the
// client's shared arena, and the retry's zero-copy pull must still observe
// the original bytes — never a recycled buffer. Every exposed region must be
// released by shutdown on all ranks.
func TestChaosStageRetryOverSM(t *testing.T) {

	var servers []*core.Server
	var serverEPs []*na.DualEndpoint
	for i := 0; i < 2; i++ {
		boot := ""
		if i > 0 {
			boot = servers[0].Addr()
		}
		s, ep := startSMServer(t, boot)
		servers = append(servers, s)
		serverEPs = append(serverEPs, ep)
		defer s.Shutdown()
	}
	if err := core.WaitMembers(servers, 2, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	checksumMu.Lock()
	instsBefore := len(checksumInsts)
	checksumMu.Unlock()

	clientEP, err := na.ListenDual("127.0.0.1:0", "", "")
	if err != nil {
		t.Fatal(err)
	}
	mi := margo.NewInstance(clientEP)
	defer mi.Finalize()
	client := core.NewClient(mi)
	reg := obs.NewRegistry()
	client.SetObserver(reg)
	admin := core.NewAdminClient(mi)
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "viz", "checksum", nil); err != nil {
			t.Fatal(err)
		}
	}

	// The leak check must hold whatever else the test concludes.
	defer func() {
		classes := []*mercury.Class{mi.Class()}
		for _, s := range servers {
			classes = append(classes, s.MI.Class())
		}
		mercury.VerifyNoExposedLeaks(t, classes...)
	}()

	h := client.Handle("viz", servers[0].Addr())
	h.SetTimeout(250 * time.Millisecond)

	const iters, blocks = 3, 5
	const blockLen = 64 << 10
	for it := uint64(1); it <= iters; it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatalf("iteration %d activate: %v", it, err)
		}
		if it == 2 {
			// Same mid-run plan as the inproc ownership test, installed on
			// every dual endpoint so drops hit whichever socket was dialed
			// (here: the unix one). Rule 0 drops a stage *request* —
			// client times out and retries with the bulk region still
			// exposed. Rule 1 drops the next response from server 0, which
			// answers a stage frame (execute waits for the flush) — the
			// server already pulled the blocks, so the retry's pull re-reads
			// a region whose first zero-copy pull completed long ago.
			plan := na.NewFaultPlan(7).SetClassifier(func(data []byte) string {
				if name, ok := mercury.RPCNameOf(data); ok {
					return name
				}
				return "response"
			})
			plan.Add(na.FaultRule{Label: "colza::stage", Nth: 1, Drop: true})
			plan.Add(na.FaultRule{Label: "response", From: servers[0].Addr(), To: mi.Addr(), Nth: 1, Drop: true})
			clientEP.SetFaultPlan(plan)
			for _, ep := range serverEPs {
				ep.SetFaultPlan(plan)
			}
			defer func() {
				for rule := 0; rule < 2; rule++ {
					if plan.Fired(rule) < 1 {
						t.Errorf("fault rule %d never fired (%s)", rule, plan)
					}
				}
			}()
		}
		for b := 0; b < blocks; b++ {
			// Pooling discipline under test: the block's pooled buffer is
			// recycled the moment Stage returns — legal because the batcher
			// copied it into the frame's own buffer, which is what the
			// retries re-expose.
			data := bufpool.Get(blockLen)
			for i := range data {
				data[i] = blockByte(it, b, i)
			}
			err := h.Stage(it, core.BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data)
			bufpool.Put(data)
			if err != nil {
				t.Fatalf("iteration %d stage %d: %v", it, b, err)
			}
		}
		if _, err := h.Execute(it); err != nil {
			t.Fatalf("iteration %d execute: %v", it, err)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatalf("iteration %d deactivate: %v", it, err)
		}
	}
	clientEP.SetFaultPlan(nil)
	for _, ep := range serverEPs {
		ep.SetFaultPlan(nil)
	}

	// The retry path must actually have run between colocated endpoints.
	snap := reg.Snapshot()
	if got := snap.Counters["colza.stage.retries{pipeline=viz}"]; got < 1 {
		t.Errorf("fault plan produced %d stage retries, want >= 1", got)
	}
	if got := snap.Counters["na.route.sm_preferred"]; got < 1 {
		t.Errorf("na.route.sm_preferred = %d: chaos ran over TCP, not the unix sockets", got)
	}
	// An sm endpoint's regions are in the arena: every frame's payload is
	// pulled from it (one pull a flushed frame, at least one frame per rank
	// an iteration), never sent along.
	var pulls, rode int64
	for _, s := range servers {
		pulls += s.Obs.Counter("na.shm.pull.local").Value()
		rode += s.Obs.Counter("mercury.bulk.eager.count").Value()
	}
	flushes := snap.Counters["colza.stage.batch.flushes{pipeline=viz}"]
	served := snap.Counters["mercury.serve.count{rpc=__mercury/bulk_pull}"]
	if flushes < iters*2 || pulls < flushes || rode != 0 || served != 0 {
		t.Errorf("colza.stage.batch.flushes = %d (want >= %d), na.shm.pull.local total = %d (want >= flushes), mercury.bulk.eager.count = %d and bulk_pull RPCs served by the client = %d (want 0 and 0): stage transfers left the arena",
			flushes, iters*2, pulls, rode, served)
	}

	checksumMu.Lock()
	defer checksumMu.Unlock()
	var staged int
	for _, p := range checksumInsts[instsBefore:] {
		p.mu.Lock()
		staged += p.staged
		for _, c := range p.corrupt {
			t.Errorf("server observed recycled/corrupted stage buffer: %s", c)
		}
		p.mu.Unlock()
	}
	if want := iters * blocks; staged < want {
		t.Errorf("backends saw %d staged blocks, want >= %d", staged, want)
	}
}
