package e2e

import (
	"encoding/json"
	"testing"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/sim"
)

// TestColzaOverTCPServerRestart runs the full pipeline cycle on real TCP
// sockets and crashes a staging server between iterations: membership must
// converge on the survivor, a replacement must join through it, and the
// next activate/stage/execute/deactivate cycle must succeed on the new
// group — the elastic recovery story over the actual wire transport.
func TestColzaOverTCPServerRestart(t *testing.T) {
	s0 := startTCPServer(t, "")
	defer s0.Shutdown()
	s1 := startTCPServer(t, s0.Addr())
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
	// Short enough that the first activate round after the crash — which
	// still proposes the pinned view including dead s1 — fails over
	// quickly instead of burning a full long RPC timeout on it.
	h.SetTimeout(5 * time.Second)
	mb := sim.DefaultMandelbulb([3]int{16, 16, 8}, 4)

	// Iteration 1 on the original pair.
	runIteration(t, h, mb, 1, 2)

	// Crash s1 mid-run (no leave announcement — the failure path), then
	// bring up a replacement that bootstraps through the survivor.
	s1.Shutdown()
	s2 := startTCPServer(t, s0.Addr())
	defer s2.Shutdown()
	if err := core.WaitMembers([]*core.Server{s0, s2}, 2, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreatePipeline(s2.Addr(), "viz", catalyst.IsoPipelineType, pcfg); err != nil {
		t.Fatal(err)
	}

	// Iteration 2 pins a fresh view over {s0, s2}; the client's stale
	// knowledge of s1 must wash out through refresh + eviction.
	runIteration(t, h, mb, 2, 2)
}
