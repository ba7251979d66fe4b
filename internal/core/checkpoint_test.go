package core

import (
	"slices"
	"testing"
	"time"
)

// runAccIteration drives one full iteration on the "acc" stateful pipeline,
// staging one 100-byte block per block id in blocks.
func runAccIteration(t *testing.T, h *DistributedPipelineHandle, it uint64, blocks int) float64 {
	t.Helper()
	if _, err := h.Activate(it); err != nil {
		t.Fatalf("activate(%d): %v", it, err)
	}
	for b := 0; b < blocks; b++ {
		if err := h.Stage(it, BlockMeta{BlockID: b}, make([]byte, 100)); err != nil {
			t.Fatalf("stage(%d, %d): %v", it, b, err)
		}
	}
	res, err := h.Execute(it)
	if err != nil {
		t.Fatalf("execute(%d): %v", it, err)
	}
	if err := h.Deactivate(it); err != nil {
		t.Fatalf("deactivate(%d): %v", it, err)
	}
	return res[0].Summary["total"]
}

func createAccEverywhere(t *testing.T, d *deployment) {
	t.Helper()
	for _, s := range d.servers {
		if err := d.admin.CreatePipeline(s.Addr(), "acc", "stateful", nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointRecoversCrashedServerState is the tentpole in miniature:
// with the default -state-replicas=1, a server crashing between deactivate
// and the next activate loses nothing — its last checkpoint is re-seeded
// into the surviving instance before the next iteration starts.
func TestCheckpointRecoversCrashedServerState(t *testing.T) {
	d := deploy(t, 2)
	createAccEverywhere(t, d)
	h := d.client.Handle("acc", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)

	if total := runAccIteration(t, h, 1, 2); total != 100 {
		t.Fatalf("iteration 1 local total = %v, want 100", total)
	}
	// Each server replicated its state to its single ring successor — the
	// other server.
	for i, s := range d.servers {
		if held := s.Provider.HeldCheckpoints(); held != 1 {
			t.Fatalf("server %d holds %d checkpoints, want 1", i, held)
		}
	}

	// Crash (no leave announcement, no migration) between iterations.
	d.servers[1].Shutdown()
	if err := WaitMembers(d.servers[:1], 1, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	if total := runAccIteration(t, h, 2, 2); total != 400 {
		// Survivor's own 200 (100 + this iteration's 200 staged bytes... see
		// below) — spelled out: iter-1 state 100 (own) + 100 (recovered) +
		// iter-2's 200 staged onto the solo survivor.
		t.Fatalf("post-crash total = %v, want 400 (crashed server's state lost?)", total)
	}
	reg := d.servers[0].Obs
	if n := reg.Counter("core.state.recover.count", "pipeline", "acc").Value(); n != 1 {
		t.Fatalf("recover.count = %d, want 1", n)
	}
	if n := reg.Counter("core.state.checkpoint.errors").Value(); n != 0 {
		t.Fatalf("checkpoint.errors = %d, want 0", n)
	}
	if n := reg.Counter("core.state.checkpoint.count", "pipeline", "acc").Value(); n == 0 {
		t.Fatal("checkpoint.count never incremented")
	}
	if held := d.servers[0].Provider.HeldCheckpoints(); held != 0 {
		t.Fatalf("survivor still holds %d checkpoints after recovery", held)
	}
}

// TestCheckpointDisabledLosesCrashedState documents the paper's baseline
// behavior when the durability layer is off: the crashed server's state is
// gone, and nothing is recovered.
func TestCheckpointDisabledLosesCrashedState(t *testing.T) {
	d := deployCfg(t, 2, func(i int, cfg *ServerConfig) { cfg.StateReplicas = -1 })
	createAccEverywhere(t, d)
	h := d.client.Handle("acc", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)

	runAccIteration(t, h, 1, 2)
	for i, s := range d.servers {
		if held := s.Provider.HeldCheckpoints(); held != 0 {
			t.Fatalf("server %d holds %d checkpoints with replication disabled", i, held)
		}
	}
	d.servers[1].Shutdown()
	if err := WaitMembers(d.servers[:1], 1, 15*time.Second); err != nil {
		t.Fatal(err)
	}

	if total := runAccIteration(t, h, 2, 2); total != 300 {
		t.Fatalf("post-crash total = %v, want 300 (own 100 + iter-2's 200; crashed 100 lost)", total)
	}
	if n := d.servers[0].Obs.Counter("core.state.recover.count", "pipeline", "acc").Value(); n != 0 {
		t.Fatalf("recover.count = %d, want 0 with replication disabled", n)
	}
}

// TestLeaveResponseFlushBeforeOnLeave: the OnLeave callback — which in the
// daemon tears the process down — must run only after the leave RPC's
// response has left the endpoint. The callback here crashes the server's
// endpoints outright (network-side close, synchronous); if the response
// were not flushed first, RequestLeave would time out. (The old code
// papered over this with a 200ms sleep; the response-flush handshake makes
// it deterministic.)
func TestLeaveResponseFlushBeforeOnLeave(t *testing.T) {
	d := deploy(t, 2)
	fired := make(chan struct{})
	d.servers[1].Provider.OnLeave(func() {
		_ = d.net.Crash("srv1")
		close(fired)
	})
	if err := d.admin.RequestLeave(d.servers[1].Addr()); err != nil {
		t.Fatalf("leave response lost behind OnLeave shutdown: %v", err)
	}
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("OnLeave never fired")
	}
	if err := WaitMembers(d.servers[:1], 1, 15*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestRingSuccessors pins the placement rule checkpoints rely on.
func TestRingSuccessors(t *testing.T) {
	view := MemberView{Members: []string{"a", "b", "c"}}
	for _, tc := range []struct {
		origin string
		want   []string
	}{
		{"a", []string{"b", "c"}},
		{"b", []string{"c", "a"}},
		{"c", []string{"a", "b"}},
		{"x", nil}, // not in view
	} {
		if got := ringSuccessors(view, tc.origin); !slices.Equal(got, tc.want) {
			t.Fatalf("ringSuccessors(%s) = %v, want %v", tc.origin, got, tc.want)
		}
	}
	solo := MemberView{Members: []string{"a"}}
	if got := ringSuccessors(solo, "a"); got != nil {
		t.Fatalf("single-member view has successors: %v", got)
	}
}

// TestReplicaSequencePrefixInvariant pins what the importer election rests
// on: whatever the live membership, a sequence starts with the list it
// extends and then names the live members that list lacks in address order,
// never the origin — so every list sent for one round is a prefix of the
// next one built, and a newcomer that sorts between the origin and an old
// holder still comes after that holder.
func TestReplicaSequencePrefixInvariant(t *testing.T) {
	ring := []string{"c", "a"} // successors of origin b in the frozen view {a, b, c}
	for _, tc := range []struct {
		list, live, want []string
	}{
		{ring, nil, []string{"c", "a"}},
		{ring, []string{"a", "b", "c"}, []string{"c", "a"}},
		{ring, []string{"bb", "c", "b", "a", "0"}, []string{"c", "a", "0", "bb"}},
		{[]string{"c", "a", "0"}, []string{"d", "0", "bb"}, []string{"c", "a", "0", "bb", "d"}},
		{nil, []string{"z", "b", "y"}, []string{"y", "z"}}, // no frozen view: address order
	} {
		if got := replicaSequence(tc.list, "b", tc.live); !slices.Equal(got, tc.want) {
			t.Fatalf("replicaSequence(%v, b, %v) = %v, want %v", tc.list, tc.live, got, tc.want)
		}
	}
}
