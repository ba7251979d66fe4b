package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCustomPlacementPolicy routes every block to rank 0 regardless of id.
func TestCustomPlacementPolicy(t *testing.T) {
	d := deploy(t, 3)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	h.SetPlacement(func(meta BlockMeta, servers int) int { return 0 })
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 6; b++ {
		if err := h.Stage(1, BlockMeta{BlockID: b}, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Summary["local_bytes"] != 6 {
		t.Fatalf("rank 0 got %v bytes, want all 6", res[0].Summary["local_bytes"])
	}
	for r := 1; r < 3; r++ {
		if res[r].Summary["local_bytes"] != 0 {
			t.Fatalf("rank %d got data despite pinning policy", r)
		}
	}
	h.Deactivate(1)

	// Out-of-range policies are rejected before any RPC.
	h.SetPlacement(func(meta BlockMeta, servers int) int { return servers + 5 })
	if _, err := h.Activate(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Stage(2, BlockMeta{}, nil); err == nil {
		t.Fatal("invalid placement accepted")
	}
	h.Deactivate(2)
}

// TestTwoPipelinesActiveConcurrently: distinct pipelines on the same
// provider can run overlapping iterations (the paper allows multiple
// loaded pipelines).
func TestTwoPipelinesActiveConcurrently(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "pipeA")
	d.createEverywhere(t, "pipeB")
	hA := d.client.Handle("pipeA", d.servers[0].Addr())
	hB := d.client.Handle("pipeB", d.servers[0].Addr())
	hA.SetTimeout(2 * time.Second)
	hB.SetTimeout(2 * time.Second)

	if _, err := hA.Activate(1); err != nil {
		t.Fatal(err)
	}
	if _, err := hB.Activate(7); err != nil {
		t.Fatal(err)
	}
	if err := hA.Stage(1, BlockMeta{BlockID: 0}, bytes.Repeat([]byte{1}, 10)); err != nil {
		t.Fatal(err)
	}
	if err := hB.Stage(7, BlockMeta{BlockID: 1}, bytes.Repeat([]byte{2}, 20)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); _, errA = hA.Execute(1) }()
	go func() { defer wg.Done(); _, errB = hB.Execute(7) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("concurrent executes: %v / %v", errA, errB)
	}
	if err := hA.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	if err := hB.Deactivate(7); err != nil {
		t.Fatal(err)
	}
}

// TestManySequentialIterations stresses the per-iteration communicator
// lifecycle (create/destroy ids) across many epochs.
func TestManySequentialIterations(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	for it := uint64(1); it <= 25; it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		if err := h.Stage(it, BlockMeta{BlockID: int(it)}, []byte{byte(it)}); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		if _, err := h.Execute(it); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
	}
}

// TestFetchViewReflectsMembership: FetchView resolves both addresses per
// member and sorts deterministically.
func TestFetchViewReflectsMembership(t *testing.T) {
	d := deploy(t, 3)
	view, err := d.client.FetchView(d.servers[1].Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 3 {
		t.Fatalf("%d members", len(view.Members))
	}
	for i, m := range view.Members {
		if m.RPC == "" || m.Mona == "" {
			t.Fatalf("member %d has empty addresses: %+v", i, m)
		}
		if i > 0 && view.Members[i-1].RPC >= m.RPC {
			t.Fatal("view not sorted by RPC address")
		}
	}
	if _, err := d.client.FetchView("inproc://not-a-server", 100*time.Millisecond); err == nil {
		t.Fatal("fetch from unreachable contact succeeded")
	}
}

// TestNBActivateConcurrentWithStageErrors: async API misuse surfaces
// errors rather than hanging.
func TestAsyncErrorsSurface(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(500 * time.Millisecond)
	// Execute without activate fails via the async path too.
	a := h.NBExecute(3)
	if _, err := a.Wait(); err == nil {
		t.Fatal("async execute without activate succeeded")
	}
}

// TestProviderInfoEndpoints: every server reports a distinct (rpc, mona)
// pair.
func TestProviderInfoEndpoints(t *testing.T) {
	d := deploy(t, 3)
	seen := map[string]bool{}
	for i, s := range d.servers {
		info := s.Provider.Info()
		if info.RPC == info.Mona {
			t.Fatalf("server %d: rpc and mona endpoints identical", i)
		}
		key := fmt.Sprintf("%s|%s", info.RPC, info.Mona)
		if seen[key] {
			t.Fatalf("duplicate endpoints: %s", key)
		}
		seen[key] = true
	}
}

func TestAdminListTypes(t *testing.T) {
	d := deploy(t, 1)
	types, err := d.admin.ListTypes(d.servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ty := range types {
		if ty == "mock" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered type missing from %v", types)
	}
}
