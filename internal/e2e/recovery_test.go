package e2e

import (
	"encoding/json"
	"testing"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/ssg"
	"colza/internal/vtk"
)

// The crash-recovery suite runs the same deterministic simulation twice —
// once with a mid-run crash, once without — and compares the cumulative
// run_* statistics of the stats pipeline (the repo's reference
// StatefulBackend). All field values are integer-valued, so float64 sums
// are exact and the oracle comparison can demand strict equality.

// statsBlock builds one 2x2x2 ImageData block whose 8 field values are
// determined by (iteration, block id): value = 1000*it + 100*b + i.
func statsBlock(it uint64, b int) *vtk.ImageData {
	img := vtk.NewImageData([3]int{2, 2, 2}, [3]float64{}, [3]float64{1, 1, 1})
	arr := img.AddPointArray("f", 1)
	for i := range arr.Data {
		arr.Data[i] = float32(1000*int(it) + 100*b + i)
	}
	return img
}

// runStatsIteration drives one full iteration staging `blocks` blocks.
func runStatsIteration(t *testing.T, h *core.DistributedPipelineHandle, it uint64, blocks int) {
	t.Helper()
	if _, err := h.Activate(it); err != nil {
		t.Fatalf("iter %d activate: %v", it, err)
	}
	for b := 0; b < blocks; b++ {
		img := statsBlock(it, b)
		if err := h.Stage(it, core.BlockMeta{Field: "f", BlockID: b, Type: "imagedata"}, img.Encode()); err != nil {
			t.Fatalf("iter %d stage %d: %v", it, b, err)
		}
	}
	if _, err := h.Execute(it); err != nil {
		t.Fatalf("iter %d execute: %v", it, err)
	}
	if err := h.Deactivate(it); err != nil {
		t.Fatalf("iter %d deactivate: %v", it, err)
	}
}

// probeRunStats runs one extra iteration with a single block and returns
// its summary. The run_* keys cover exactly the previously completed
// iterations (the current one folds in at deactivate), so this reads the
// cumulative statistics without perturbing them. The block makes the probe
// an ordinary iteration; an empty one would execute too, since a summary
// leaves out the mean and extrema of an iteration without samples.
func probeRunStats(t *testing.T, h *core.DistributedPipelineHandle, it uint64) map[string]float64 {
	t.Helper()
	if _, err := h.Activate(it); err != nil {
		t.Fatalf("probe activate: %v", err)
	}
	img := statsBlock(it, 0)
	if err := h.Stage(it, core.BlockMeta{Field: "f", BlockID: 0, Type: "imagedata"}, img.Encode()); err != nil {
		t.Fatalf("probe stage: %v", err)
	}
	res, err := h.Execute(it)
	if err != nil {
		t.Fatalf("probe execute: %v", err)
	}
	if err := h.Deactivate(it); err != nil {
		t.Fatalf("probe deactivate: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("probe returned no results")
	}
	return res[0].Summary
}

const (
	recoveryIters  = 4
	recoveryBlocks = 4
)

// runRecoveryArm runs one arm of the experiment on a fresh in-proc
// fabric: two servers, the stats pipeline, recoveryIters iterations of
// recoveryBlocks blocks. When crash is set, server 1 dies abruptly (no
// graceful leave) between deactivate(2) and activate(3). configure, when
// non-nil, adjusts the handle before the run (the compressed arms enable a
// wire codec here). Returns the probe-iteration summary and the survivor's
// metrics snapshot.
func runRecoveryArm(t *testing.T, prefix string, stateReplicas int, crash bool, configure func(h *core.DistributedPipelineHandle)) (map[string]float64, obs.Snapshot) {
	t.Helper()
	net := na.NewInprocNetwork()
	mkCfg := func(i int, boot string) core.ServerConfig {
		return core.ServerConfig{
			Bootstrap:     boot,
			StateReplicas: stateReplicas,
			SSG: ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 75 * time.Millisecond,
				SuspectPeriods: 10, Seed: int64(i + 1)},
		}
	}
	s0, err := core.StartInprocServer(net, prefix+"0", mkCfg(0, ""))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s0.Shutdown)
	s1, err := core.StartInprocServer(net, prefix+"1", mkCfg(1, s0.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s1.Shutdown)
	if err := core.WaitMembers([]*core.Server{s0, s1}, 2, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	ep, _ := net.Listen(prefix + "-client")
	mi := margo.NewInstance(ep)
	t.Cleanup(mi.Finalize)
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)
	pcfg, _ := json.Marshal(catalyst.StatsConfig{Field: "f"})
	for _, s := range []*core.Server{s0, s1} {
		if err := admin.CreatePipeline(s.Addr(), "stats", catalyst.StatsPipelineType, pcfg); err != nil {
			t.Fatal(err)
		}
	}

	h := client.Handle("stats", s0.Addr())
	h.SetTimeout(10 * time.Second)
	if configure != nil {
		configure(h)
	}
	for it := uint64(1); it <= recoveryIters; it++ {
		if crash && it == 3 {
			// The stateful server dies between iterations, no
			// announcement. Wait for SWIM to evict it so activate(3)
			// negotiates the one-member view (where recovery runs).
			s1.Shutdown()
			if err := core.WaitMembers([]*core.Server{s0}, 1, 20*time.Second); err != nil {
				t.Fatalf("survivor never evicted the crashed server: %v", err)
			}
		}
		runStatsIteration(t, h, it, recoveryBlocks)
	}
	probe := probeRunStats(t, h, recoveryIters+1)
	return probe, s0.Obs.Snapshot()
}

// TestCrashRecoveryMatchesOracle is the tentpole acceptance run: with
// -state-replicas=1 semantics (the default), killing the stateful server
// between deactivate and the next activate yields final cumulative
// statistics identical to a crash-free oracle run — the surviving replica
// detects the orphaned checkpoint at the next 2PC activate and re-seeds
// the pipeline before the iteration starts.
func TestCrashRecoveryMatchesOracle(t *testing.T) {
	oracle, _ := runRecoveryArm(t, "cr-oracle", 1, false, nil)
	crashed, snap := runRecoveryArm(t, "cr-crash", 1, true, nil)
	assertRecoveryMatchesOracle(t, oracle, crashed, snap)
}

// TestCrashRecoveryMatchesOracleCompressed reruns the crash-vs-oracle
// experiment with the stage wire compressed through delta. The crash
// shrinks the view, which must invalidate every delta base on both sides
// (the survivor just imported recovered state; the client pinned a
// different member set), so the recovered run still reproduces the
// oracle's statistics exactly: any stale base that survived invalidation
// would reconstruct wrong bytes and move the strict-equality sums.
func TestCrashRecoveryMatchesOracleCompressed(t *testing.T) {
	oracle, _ := runRecoveryArm(t, "cr-oracle-c", 1, false, nil)
	t.Run("delta", func(t *testing.T) {
		crashed, snap := runRecoveryArm(t, "cr-delta", 1, true, func(h *core.DistributedPipelineHandle) {
			if err := h.SetCodec("delta"); err != nil {
				t.Fatal(err)
			}
		})
		assertRecoveryMatchesOracle(t, oracle, crashed, snap)
		// The compressed frames must actually have crossed the wire: the
		// survivor decoded the codec's payloads into larger blocks.
		if got := snap.Counters["codec.bytes.in{codec=delta}"]; got < 1 {
			t.Errorf("codec.bytes.in{codec=delta} = %d, want > 0", got)
		}
	})
}

// assertRecoveryMatchesOracle holds a crashed arm to the oracle's exact
// cumulative statistics and checks the recovery left its fingerprints in
// the survivor's metrics.
func assertRecoveryMatchesOracle(t *testing.T, oracle, crashed map[string]float64, snap obs.Snapshot) {
	t.Helper()
	// Integer-valued samples make float64 sums exact, so equality is strict.
	for _, key := range []string{"run_count", "run_sum", "run_mean", "run_min", "run_max"} {
		ov, ok := oracle[key]
		if !ok {
			t.Fatalf("oracle summary lacks %q: %v", key, oracle)
		}
		cv, ok := crashed[key]
		if !ok {
			t.Fatalf("crashed-arm summary lacks %q: %v", key, crashed)
		}
		if ov != cv {
			t.Errorf("%s: crashed arm %v != oracle %v", key, cv, ov)
		}
	}
	// And against the analytic totals, so both arms can't be wrong together.
	var wantCount, wantSum float64
	for it := uint64(1); it <= recoveryIters; it++ {
		for b := 0; b < recoveryBlocks; b++ {
			for i := 0; i < 8; i++ {
				wantCount++
				wantSum += float64(1000*int(it) + 100*b + i)
			}
		}
	}
	if oracle["run_count"] != wantCount || oracle["run_sum"] != wantSum {
		t.Errorf("oracle run_count=%v run_sum=%v, want %v and %v",
			oracle["run_count"], oracle["run_sum"], wantCount, wantSum)
	}

	// The recovery must be visible in the survivor's registry, and nothing
	// may have failed silently along the way.
	if got := snap.Counters["core.state.recover.count{pipeline=stats}"]; got != 1 {
		t.Errorf("core.state.recover.count{pipeline=stats} = %d, want 1", got)
	}
	if got := snap.Counters["core.state.checkpoint.errors"]; got != 0 {
		t.Errorf("core.state.checkpoint.errors = %d, want 0", got)
	}
	if got := snap.Counters["core.migrate.errors"]; got != 0 {
		t.Errorf("core.migrate.errors = %d, want 0 (no graceful migration in a crash)", got)
	}
}

// TestCrashRecoveryWithoutReplicationDocumentsLoss is the control arm:
// with the durability layer disabled the same crash loses exactly the
// dead server's share of the first two iterations — 2 of 4 blocks × 8
// values × 2 iterations = 32 samples — and no recovery is recorded.
func TestCrashRecoveryWithoutReplicationDocumentsLoss(t *testing.T) {
	probe, snap := runRecoveryArm(t, "cr-norep", -1, true, nil)

	wantCount := float64(recoveryIters*recoveryBlocks*8 - 2*2*8)
	if probe["run_count"] != wantCount {
		t.Errorf("run_count = %v, want %v (crashed server's first-two-iteration samples lost)",
			probe["run_count"], wantCount)
	}
	if got := snap.Counters["core.state.recover.count{pipeline=stats}"]; got != 0 {
		t.Errorf("core.state.recover.count{pipeline=stats} = %d, want 0 with replication off", got)
	}
}
