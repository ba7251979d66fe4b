package mona

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"colza/internal/collectives"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// dropped reads the process-wide count of frames an instance dropped
// instead of parking, for one reason.
func dropped(reason string) int64 {
	return obs.Default().Counter("mona.orphans.dropped", "reason", reason).Value()
}

// parkedBytes sums the payload bytes i holds for communicators it has not
// created.
func parkedBytes(i *Instance) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	n := 0
	for _, msgs := range i.orphans {
		for _, m := range msgs {
			n += len(m.Data)
		}
	}
	return n
}

// flushProgress returns once to's progress loop has handled every frame
// from sent before the call: it sends a marker on a fresh communicator
// and receives it, and the in-proc link delivers in order.
func flushProgress(t *testing.T, from, to *Instance, id uint64) {
	t.Helper()
	addrs := []string{from.Addr(), to.Addr()}
	cf, err := from.CreateComm(id, addrs)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := to.CreateComm(id, addrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := cf.Send(1, 0, []byte("marker")); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Recv(0, 0); err != nil {
		t.Fatal(err)
	}
	from.DestroyComm(cf)
	to.DestroyComm(ct)
}

// TestLateFrameForDestroyedCommDropped: a rank still sending after its
// peer destroyed the iteration's communicator must not leave the frame
// parked at the peer — the id never recurs, so nothing would release it.
func TestLateFrameForDestroyedCommDropped(t *testing.T) {
	insts, comms := group(t, 2, 70)
	before := dropped("destroyed")
	insts[1].DestroyComm(comms[1])
	if err := comms[0].Send(1, 3, make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	flushProgress(t, insts[0], insts[1], 71)
	if n := parkedBytes(insts[1]); n != 0 {
		t.Errorf("%d bytes parked for a destroyed communicator", n)
	}
	if got := dropped("destroyed") - before; got != 1 {
		t.Errorf("mona.orphans.dropped{reason=destroyed} rose by %d, want 1", got)
	}
}

// TestOrphanQueueBounded: stray frames for communicators that never
// appear stay under maxOrphanBytes; the rest are dropped and counted.
func TestOrphanQueueBounded(t *testing.T) {
	insts, _ := group(t, 2, 80)
	before := dropped("full")
	const frame = 4 << 20
	stray := make([]byte, headerLen+frame)
	for k := 0; k < 3*maxOrphanBytes/(2*frame); k++ {
		binary.LittleEndian.PutUint64(stray, uint64(1000+k))
		if err := insts[0].class.SendFrame(insts[1].Addr(), stray, nil); err != nil {
			t.Fatal(err)
		}
	}
	flushProgress(t, insts[0], insts[1], 81)
	if n := parkedBytes(insts[1]); n > maxOrphanBytes {
		t.Errorf("%d bytes parked, bound %d", n, maxOrphanBytes)
	}
	if dropped("full") == before {
		t.Error("mona.orphans.dropped{reason=full} did not rise")
	}
}

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
		_, err := collectives.Bcast(c1, 0, 1, nil, collectives.DefaultAlgorithm)
		done <- err
	}()
	if _, err := collectives.Bcast(c0, 0, 1, []byte("fresh"), collectives.DefaultAlgorithm); err != nil {
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
			got, err := collectives.Bcast(c, 0, 100, in, collectives.DefaultAlgorithm)
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
			got, err := collectives.Bcast(c, 0, 200, in, collectives.DefaultAlgorithm)
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

// TestAttachedFinalize: finalizing an instance attached to a class fails a
// receiver blocked on it and refuses new communicators, while the class,
// which is its owner's, stays open.
func TestAttachedFinalize(t *testing.T) {
	ep, _ := na.NewInprocNetwork().Listen("srv")
	c := mercury.New(ep)
	defer c.Close()
	i := Attach(c)
	addrs := []string{c.Addr(), "inproc://peer"}
	cm, err := i.CreateComm(90, addrs)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := cm.Recv(1, 2)
		errCh <- err
	}()
	i.Finalize()
	if err := <-errCh; !errors.Is(err, ErrDestroyed) {
		t.Fatalf("blocked Recv after Finalize: %v", err)
	}
	if _, err := i.CreateComm(91, addrs); !errors.Is(err, na.ErrClosed) {
		t.Fatalf("CreateComm after Finalize: %v", err)
	}
	if _, err := c.Call(c.Addr(), "none", nil, time.Second); !errors.Is(err, mercury.ErrUnknownRPC) {
		t.Fatalf("the class stopped serving: %v", err)
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
