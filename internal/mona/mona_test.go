package mona

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"colza/internal/collectives"
	"colza/internal/na"
)

// group builds n MoNA instances on a shared in-proc network and one
// communicator spanning them.
func group(t *testing.T, n int, commID uint64) ([]*Instance, []*Comm) {
	t.Helper()
	net := na.NewInprocNetwork()
	insts := make([]*Instance, n)
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		ep, err := net.Listen(fmt.Sprintf("mona%d", r))
		if err != nil {
			t.Fatal(err)
		}
		insts[r] = NewInstance(ep)
		addrs[r] = insts[r].Addr()
	}
	comms := make([]*Comm, n)
	for r := 0; r < n; r++ {
		c, err := insts[r].CreateComm(commID, addrs)
		if err != nil {
			t.Fatal(err)
		}
		comms[r] = c
	}
	t.Cleanup(func() {
		for _, i := range insts {
			i.Finalize()
		}
	})
	return insts, comms
}

// onAll runs fn concurrently on every rank's communicator.
func onAll(t *testing.T, comms []*Comm, fn func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	for _, c := range comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			if err := fn(c); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
		}(c)
	}
	wg.Wait()
}

func TestSendRecvWithTags(t *testing.T) {
	_, comms := group(t, 2, 1)
	done := make(chan error, 1)
	go func() {
		// Send two tags out of order; receiver matches each.
		if err := comms[0].Send(1, 20, []byte("second")); err != nil {
			done <- err
			return
		}
		done <- comms[0].Send(1, 10, []byte("first"))
	}()
	got10, err := comms[1].Recv(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	got20, err := comms[1].Recv(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if string(got10) != "first" || string(got20) != "second" {
		t.Fatalf("got %q/%q", got10, got20)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestRankAndSize(t *testing.T) {
	_, comms := group(t, 5, 2)
	for r, c := range comms {
		if c.Rank() != r || c.Size() != 5 {
			t.Fatalf("rank %d: Rank=%d Size=%d", r, c.Rank(), c.Size())
		}
	}
}

func TestBcastAcrossInstances(t *testing.T) {
	_, comms := group(t, 7, 3)
	payload := []byte("elastic-staging")
	onAll(t, comms, func(c *Comm) error {
		var in []byte
		if c.Rank() == 2 {
			in = payload
		}
		got, err := collectives.Bcast(c, 2, 50, in, collectives.DefaultAlgorithm)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("got %q", got)
		}
		return nil
	})
}

func TestReduceXor(t *testing.T) {
	n := 6
	_, comms := group(t, n, 4)
	inputs := make([][]byte, n)
	want := make([]byte, 32)
	for r := range inputs {
		inputs[r] = bytes.Repeat([]byte{byte(3*r + 1)}, 32)
		collectives.XorBytes(want, inputs[r])
	}
	onAll(t, comms, func(c *Comm) error {
		got, err := c.Reduce(0, 60, inputs[c.Rank()], collectives.XorBytes)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && !bytes.Equal(got, want) {
			return fmt.Errorf("root mismatch")
		}
		return nil
	})
}

func TestAllReduce(t *testing.T) {
	n := 4
	_, comms := group(t, n, 5)
	onAll(t, comms, func(c *Comm) error {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, math.Float64bits(1.5))
		got, err := c.AllReduce(70, buf, collectives.SumFloat64)
		if err != nil {
			return err
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(got))
		if v != 1.5*float64(n) {
			return fmt.Errorf("allreduce = %v", v)
		}
		return nil
	})
}

// The key elastic property: messages that arrive before the local process
// has created the communicator are parked and delivered on creation.
func TestOrphanedMessagesDeliveredOnCreateComm(t *testing.T) {
	net := na.NewInprocNetwork()
	epA, _ := net.Listen("oa")
	epB, _ := net.Listen("ob")
	a, b := NewInstance(epA), NewInstance(epB)
	defer a.Finalize()
	defer b.Finalize()
	addrs := []string{a.Addr(), b.Addr()}
	ca, err := a.CreateComm(99, addrs)
	if err != nil {
		t.Fatal(err)
	}
	// A sends before B has created the communicator.
	if err := ca.Send(1, 5, []byte("early")); err != nil {
		t.Fatal(err)
	}
	cb, err := b.CreateComm(99, addrs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cb.Recv(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "early" {
		t.Fatalf("got %q", got)
	}
}

// Growing the group: build a new communicator with more members under a
// new id while the old one still exists — MoNA's no-world property.
func TestGrowGroupWithNewCommunicator(t *testing.T) {
	net := na.NewInprocNetwork()
	var insts []*Instance
	mk := func(name string) *Instance {
		ep, err := net.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		i := NewInstance(ep)
		insts = append(insts, i)
		return i
	}
	defer func() {
		for _, i := range insts {
			i.Finalize()
		}
	}()
	a, b := mk("g0"), mk("g1")
	addrs2 := []string{a.Addr(), b.Addr()}
	c2a, _ := a.CreateComm(1, addrs2)
	c2b, _ := b.CreateComm(1, addrs2)

	// Use epoch-1 communicator.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); collectives.Bcast(c2b, 0, 1, nil, collectives.DefaultAlgorithm) }()
	if _, err := collectives.Bcast(c2a, 0, 1, []byte("x"), collectives.DefaultAlgorithm); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// New member joins; epoch-2 communicator spans all three.
	c := mk("g2")
	addrs3 := []string{a.Addr(), b.Addr(), c.Addr()}
	comms := make([]*Comm, 3)
	for idx, inst := range []*Instance{a, b, c} {
		cm, err := inst.CreateComm(2, addrs3)
		if err != nil {
			t.Fatal(err)
		}
		comms[idx] = cm
	}
	payload := []byte("three-wide")
	for _, cm := range comms[1:] {
		wg.Add(1)
		go func(cm *Comm) {
			defer wg.Done()
			got, err := collectives.Bcast(cm, 0, 2, nil, collectives.DefaultAlgorithm)
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("bcast on grown comm: %v %q", err, got)
			}
		}(cm)
	}
	if _, err := collectives.Bcast(comms[0], 0, 2, payload, collectives.DefaultAlgorithm); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

func TestCreateCommErrors(t *testing.T) {
	net := na.NewInprocNetwork()
	ep, _ := net.Listen("e0")
	i := NewInstance(ep)
	defer i.Finalize()
	if _, err := i.CreateComm(1, []string{"inproc://other"}); !errors.Is(err, ErrNotMember) {
		t.Fatalf("err = %v, want ErrNotMember", err)
	}
	if _, err := i.CreateComm(2, []string{i.Addr()}); err != nil {
		t.Fatal(err)
	}
	if _, err := i.CreateComm(2, []string{i.Addr()}); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestDestroyCommUnblocksReceivers(t *testing.T) {
	insts, comms := group(t, 2, 7)
	errCh := make(chan error, 1)
	go func() {
		_, err := comms[0].Recv(1, 1)
		errCh <- err
	}()
	insts[0].DestroyComm(comms[0])
	if err := <-errCh; !errors.Is(err, ErrDestroyed) {
		t.Fatalf("err = %v, want ErrDestroyed", err)
	}
}

func TestSendRecvRankValidation(t *testing.T) {
	_, comms := group(t, 2, 8)
	if err := comms[0].Send(7, 0, nil); !errors.Is(err, ErrRank) {
		t.Fatalf("Send err = %v", err)
	}
	if _, err := comms[0].Recv(-1, 0); !errors.Is(err, ErrRank) {
		t.Fatalf("Recv err = %v", err)
	}
}

// Property: reduce over a random number of instances with random payloads
// matches the sequential fold, across live MoNA instances.
func TestQuickMonaReduce(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := int(nRaw%5) + 2
		net := na.NewInprocNetwork()
		insts := make([]*Instance, n)
		addrs := make([]string, n)
		for r := 0; r < n; r++ {
			ep, err := net.Listen(fmt.Sprintf("q%d", r))
			if err != nil {
				return false
			}
			insts[r] = NewInstance(ep)
			addrs[r] = insts[r].Addr()
		}
		defer func() {
			for _, i := range insts {
				i.Finalize()
			}
		}()
		want := make([]byte, 16)
		inputs := make([][]byte, n)
		for r := range inputs {
			inputs[r] = make([]byte, 16)
			for j := range inputs[r] {
				inputs[r][j] = byte(seed>>uint(j%8) + int64(r*j))
			}
			collectives.XorBytes(want, inputs[r])
		}
		var wg sync.WaitGroup
		results := make([][]byte, n)
		errs := make([]error, n)
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, err := insts[r].CreateComm(77, addrs)
				if err != nil {
					errs[r] = err
					return
				}
				results[r], errs[r] = c.Reduce(0, 1, inputs[r], collectives.XorBytes)
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return false
			}
		}
		return bytes.Equal(results[0], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
