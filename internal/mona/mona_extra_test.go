package mona

import (
	"fmt"
	"sync"
	"testing"

	"colza/internal/collectives"
	"colza/internal/na"
)

// TestCommIDReuseAfterDestroy: destroying a communicator frees its id for
// a later epoch with the same derived id.
func TestCommIDReuseAfterDestroy(t *testing.T) {
	insts, comms := group(t, 2, 55)
	insts[0].DestroyComm(comms[0])
	insts[1].DestroyComm(comms[1])
	addrs := []string{insts[0].Addr(), insts[1].Addr()}
	c0, err := insts[0].CreateComm(55, addrs)
	if err != nil {
		t.Fatalf("recreate after destroy: %v", err)
	}
	c1, err := insts[1].CreateComm(55, addrs)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c1.Bcast(0, 1, nil)
		done <- err
	}()
	if _, err := c0.Bcast(0, 1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCollectivesDistinctTags: two collectives proceed
// simultaneously on the same communicator when their tags differ.
func TestConcurrentCollectivesDistinctTags(t *testing.T) {
	_, comms := group(t, 4, 56)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i, c := range comms {
		wg.Add(2)
		go func(i int, c *Comm) {
			defer wg.Done()
			var in []byte
			if c.Rank() == 0 {
				in = []byte("first")
			}
			got, err := c.Bcast(0, 100, in)
			if err == nil && string(got) != "first" {
				err = fmt.Errorf("tag 100 got %q", got)
			}
			errs[2*i] = err
		}(i, c)
		go func(i int, c *Comm) {
			defer wg.Done()
			var in []byte
			if c.Rank() == 0 {
				in = []byte("second")
			}
			got, err := c.Bcast(0, 200, in)
			if err == nil && string(got) != "second" {
				err = fmt.Errorf("tag 200 got %q", got)
			}
			errs[2*i+1] = err
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestShrinkingGroupCommunicator: a new epoch excluding a member still
// works, and the excluded instance can no longer participate under the
// new id.
func TestShrinkingGroupCommunicator(t *testing.T) {
	net := na.NewInprocNetwork()
	insts := make([]*Instance, 3)
	addrs3 := make([]string, 3)
	for i := range insts {
		ep, err := net.Listen(fmt.Sprintf("shrink%d", i))
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = NewInstance(ep)
		addrs3[i] = insts[i].Addr()
	}
	defer func() {
		for _, i := range insts {
			i.Finalize()
		}
	}()
	// Epoch 2 spans only instances 0 and 1.
	addrs2 := addrs3[:2]
	c0, err := insts[0].CreateComm(2, addrs2)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := insts[1].CreateComm(2, addrs2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := insts[2].CreateComm(2, addrs2); err == nil {
		t.Fatal("excluded instance created a communicator it is not in")
	}
	done := make(chan error, 1)
	go func() {
		_, err := c1.Reduce(0, 1, []byte{5}, collectives.XorBytes)
		done <- err
	}()
	res, err := c0.Reduce(0, 1, []byte{3}, collectives.XorBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if res[0] != 6 {
		t.Fatalf("reduce over shrunken group = %d, want 6", res[0])
	}
}

// TestFinalizeDuringBlockedRecv: finalizing an instance releases a
// receiver blocked on one of its communicators.
func TestFinalizeDuringBlockedRecv(t *testing.T) {
	insts, comms := group(t, 2, 58)
	errCh := make(chan error, 1)
	go func() {
		_, err := comms[0].Recv(1, 42)
		errCh <- err
	}()
	insts[0].Finalize()
	if err := <-errCh; err == nil {
		t.Fatal("blocked Recv survived Finalize")
	}
}
