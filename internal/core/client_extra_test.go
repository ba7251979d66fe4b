package core

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

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

// TestFetchViewReflectsMembership: FetchView lists every member and sorts
// deterministically.
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
		if m == "" {
			t.Fatalf("member %d has an empty address", i)
		}
		if i > 0 && view.Members[i-1] >= m {
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
