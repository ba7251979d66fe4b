// Package e2e holds end-to-end integration tests: full Colza deployments
// over the TCP transport (actually distributed endpoints, not the in-proc
// fabric), the command-line binaries, and failure-injection runs.
package e2e

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/sim"
	"colza/internal/ssg"
)

func init() { catalyst.Register() }

// startTCPServer launches one staging server on real TCP sockets.
func startTCPServer(t *testing.T, bootstrap string) *core.Server {
	t.Helper()
	rpcEP, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.StartServer(rpcEP, nil, core.ServerConfig{
		Bootstrap: bootstrap,
		// Generous failure-detector settings: under -race on a single
		// core, scheduling stalls must not read as member failures.
		SSG: ssg.Config{GossipPeriod: 10 * time.Millisecond, PingTimeout: 200 * time.Millisecond, SuspectPeriods: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestColzaOverTCP runs the whole stack — SSG membership, 2PC activation,
// RDMA-style staging, MoNA collectives, IceT compositing — over loopback
// TCP, including growing the staging area mid-run.
func TestColzaOverTCP(t *testing.T) {
	s0 := startTCPServer(t, "")
	defer s0.Shutdown()
	s1 := startTCPServer(t, s0.Addr())
	defer s1.Shutdown()
	if err := core.WaitMembers([]*core.Server{s0, s1}, 2, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	clientEP, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mi := margo.NewInstance(clientEP)
	defer mi.Finalize()
	client := core.NewClient(mi)
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

	// Iteration 1 on two servers.
	runIteration(t, h, mb, 1, 2)

	// Grow to three servers over TCP, then iteration 2 uses all three.
	s2 := startTCPServer(t, s0.Addr())
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
}

func runIteration(t *testing.T, h *core.DistributedPipelineHandle, mb sim.MandelbulbConfig, it uint64, wantServers int) {
	t.Helper()
	view, err := h.Activate(it)
	if err != nil {
		t.Fatalf("iter %d activate: %v", it, err)
	}
	if len(view.Members) != wantServers {
		t.Fatalf("iter %d: view has %d members, want %d", it, len(view.Members), wantServers)
	}
	for b := 0; b < mb.Blocks; b++ {
		blk := sim.MandelbulbBlock(mb, b, it)
		if err := h.Stage(it, sim.MandelbulbMeta(mb, b), blk.Encode()); err != nil {
			t.Fatalf("iter %d stage: %v", it, err)
		}
	}
	results, err := h.Execute(it)
	if err != nil {
		t.Fatalf("iter %d execute: %v", it, err)
	}
	if len(results) != wantServers {
		t.Fatalf("iter %d: %d results", it, len(results))
	}
	var blocks float64
	for _, r := range results {
		blocks += r.Summary["blocks"]
	}
	if int(blocks) != mb.Blocks {
		t.Fatalf("iter %d: staged %v blocks, want %d", it, blocks, mb.Blocks)
	}
	if len(results[0].Image) == 0 || results[0].Image[1] != 'P' {
		t.Fatalf("iter %d: rank 0 emitted no PNG", it)
	}
	if err := h.Deactivate(it); err != nil {
		t.Fatalf("iter %d deactivate: %v", it, err)
	}
}

// TestSurvivesServerCrashMidRun is the fault-tolerance extension (the
// paper's future work (1)): a server crashes between iterations; the SWIM
// detector evicts it; the next activate renegotiates a smaller view and
// the run continues without restarting anything.
func TestSurvivesServerCrashMidRun(t *testing.T) {
	net := na.NewInprocNetwork()
	cfg := func(i int, boot string) core.ServerConfig {
		// Crash detection must still fire promptly, but tolerate -race
		// slowness: 50ms probe timeout, ~10 periods of suspicion.
		return core.ServerConfig{Bootstrap: boot, SSG: ssg.Config{
			GossipPeriod: 5 * time.Millisecond, PingTimeout: 50 * time.Millisecond,
			SuspectPeriods: 10, Seed: int64(i + 1)}}
	}
	var servers []*core.Server
	for i := 0; i < 3; i++ {
		boot := ""
		if i > 0 {
			boot = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("ft%d", i), cfg(i, boot))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	defer func() {
		for _, s := range servers[:2] {
			s.Shutdown()
		}
	}()
	if err := core.WaitMembers(servers, 3, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	ep, _ := net.Listen("ft-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)
	pcfg, _ := json.Marshal(catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: 48, Height: 48,
		ScalarRange: [2]float64{0, 32}, EmitImage: true,
	})
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "viz", catalyst.IsoPipelineType, pcfg); err != nil {
			t.Fatal(err)
		}
	}
	h := client.Handle("viz", servers[0].Addr())
	// Long enough that a loaded -race run doesn't time out a healthy
	// execute; crash detection below rests on SWIM suspicion, not this.
	h.SetTimeout(500 * time.Millisecond)
	mb := sim.DefaultMandelbulb([3]int{12, 12, 8}, 4)
	runIteration(t, h, mb, 1, 3)

	// Crash server 2 without any announcement.
	servers[2].Shutdown()

	// The next iteration must eventually succeed on the survivors.
	view, err := h.Activate(2)
	if err != nil {
		t.Fatalf("activate after crash: %v", err)
	}
	if len(view.Members) != 2 {
		t.Fatalf("view after crash has %d members", len(view.Members))
	}
	for b := 0; b < mb.Blocks; b++ {
		blk := sim.MandelbulbBlock(mb, b, 2)
		if err := h.Stage(2, sim.MandelbulbMeta(mb, b), blk.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Execute(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(2); err != nil {
		t.Fatal(err)
	}
}

// TestLossyNetworkStillConverges injects message loss underneath SWIM and
// the control plane; gossip and RPC retry/timeout paths must still bring
// the group together and run an iteration.
func TestLossyNetworkStillConverges(t *testing.T) {
	net := na.NewInprocNetwork()
	net.SetFaultPlan(na.NewFaultPlan(1).Add(na.FaultRule{Prob: 0.05, Drop: true})) // 5% loss on every delivery
	var servers []*core.Server
	for i := 0; i < 3; i++ {
		boot := ""
		if i > 0 {
			boot = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("lossy%d", i), core.ServerConfig{
			Bootstrap: boot,
			SSG: ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond,
				SuspectPeriods: 20, Seed: int64(i + 1)},
		})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		defer s.Shutdown()
	}
	if err := core.WaitMembers(servers, 3, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	// Heal the network for the data plane (bulk pulls are not retried in
	// this prototype), then run an iteration to prove the group is usable.
	net.SetFaultPlan(nil)
	ep, _ := net.Listen("lossy-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)
	pcfg, _ := json.Marshal(catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: 32, Height: 32,
		ScalarRange: [2]float64{0, 32}, EmitImage: true,
	})
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "viz", catalyst.IsoPipelineType, pcfg); err != nil {
			t.Fatal(err)
		}
	}
	h := client.Handle("viz", servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	mb := sim.DefaultMandelbulb([3]int{10, 10, 6}, 3)
	runIteration(t, h, mb, 1, 3)
}
