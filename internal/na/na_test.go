package na

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestInprocSendRecv(t *testing.T) {
	n := NewInprocNetwork()
	a, err := n.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	from, data, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if from != "inproc://a" || string(data) != "hello" {
		t.Fatalf("got from=%s data=%q", from, data)
	}
}

func TestInprocDuplicateNameRejected(t *testing.T) {
	n := NewInprocNetwork()
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Fatal("expected duplicate-name error")
	}
	if _, err := n.Listen(""); err == nil {
		t.Fatal("expected empty-name error")
	}
}

func TestInprocNoRouteVsCrashedPeer(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	if err := a.Send("inproc://ghost", nil); err == nil {
		t.Fatal("expected ErrNoRoute for never-seen address")
	}
	b, _ := n.Listen("b")
	baddr := b.Addr()
	b.Close()
	if err := a.Send(baddr, []byte("late")); err != nil {
		t.Fatalf("send to crashed peer should drop silently, got %v", err)
	}
}

// The receiver gets a private copy of every message, whichever way it was
// handed over, so the sender may reuse its buffers once the send returns.
func TestInprocSenderOwnsBuffer(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	for _, c := range []struct{ head, body string }{
		{"", "immutable"}, {"immu", "table"}, {"immutable", ""},
	} {
		head, body := []byte(c.head), []byte(c.body)
		a.SendGather(b.Addr(), head, body)
		// Mutate after send; the receiver must see the original.
		for _, buf := range [][]byte{head, body} {
			if len(buf) > 0 {
				buf[0] = 'X'
			}
		}
		_, data, _ := b.Recv()
		if string(data) != "immutable" {
			t.Fatalf("head %q body %q: receiver saw mutated buffer: %q", c.head, c.body, data)
		}
	}
}

func TestInprocCloseUnblocksRecv(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	done := make(chan error, 1)
	go func() {
		_, _, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestInprocPartition(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	n.SetFaultPlan(NewFaultPlan(1).
		Add(FaultRule{From: a.Addr(), To: b.Addr(), Drop: true}).
		Add(FaultRule{From: b.Addr(), To: a.Addr(), Drop: true}))
	a.Send(b.Addr(), []byte("lost"))
	n.SetFaultPlan(nil)
	a.Send(b.Addr(), []byte("arrives"))
	_, data, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "arrives" {
		t.Fatalf("got %q, want the post-heal message", data)
	}
}

func TestInprocDropAll(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	n.SetFaultPlan(NewFaultPlan(1).Add(FaultRule{Drop: true}))
	for i := 0; i < 10; i++ {
		a.Send(b.Addr(), []byte("x"))
	}
	n.SetFaultPlan(nil)
	a.Send(b.Addr(), []byte("y"))
	_, data, _ := b.Recv()
	if string(data) != "y" {
		t.Fatalf("got %q despite 100%% drop before", data)
	}
}

func TestInprocLinkDelay(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	n.SetFaultPlan(NewFaultPlan(1).Add(FaultRule{Delay: 30 * time.Millisecond}))
	start := time.Now()
	a.Send(b.Addr(), []byte("slow"))
	_, _, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("delivery took %v, want >= ~30ms", el)
	}
}

func TestInprocConcurrentSenders(t *testing.T) {
	n := NewInprocNetwork()
	rx, _ := n.Listen("rx")
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := n.Listen(fmt.Sprintf("tx%d", s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ep.Send(rx.Addr(), []byte{byte(i)}); err != nil {
					t.Error(err)
				}
			}
		}(ep)
	}
	counts := map[string]int{}
	for i := 0; i < senders*per; i++ {
		from, _, err := rx.Recv()
		if err != nil {
			t.Fatal(err)
		}
		counts[from]++
	}
	wg.Wait()
	for from, c := range counts {
		if c != per {
			t.Fatalf("from %s: %d messages, want %d", from, c, per)
		}
	}
}

func TestTCPSendRecvBothDirections(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	payload := bytes.Repeat([]byte("tcp"), 5000)
	if err := a.Send(b.Addr(), payload); err != nil {
		t.Fatal(err)
	}
	from, data, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if from != a.Addr() || !bytes.Equal(data, payload) {
		t.Fatalf("bad frame: from=%s len=%d", from, len(data))
	}
	// Reply using the carried sender address.
	if err := b.Send(from, []byte("ack")); err != nil {
		t.Fatal(err)
	}
	_, data, err = a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "ack" {
		t.Fatalf("reply = %q", data)
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestTCPRejectsOversizedMessage(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	huge := make([]byte, maxFrame+1)
	if err := a.Send(a.Addr(), huge); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestTCPSendToDeadPeerDropsSilently(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baddr := b.Addr()
	b.Close()
	if err := a.Send(baddr, []byte("gone")); err != nil {
		t.Fatalf("send to dead peer: %v, want silent drop", err)
	}
}

// Property: frames of arbitrary content round-trip over the inproc
// transport unchanged and in order per sender.
func TestQuickInprocRoundTrip(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("qa")
	b, _ := n.Listen("qb")
	f := func(msgs [][]byte) bool {
		if len(msgs) > 32 {
			msgs = msgs[:32]
		}
		for _, m := range msgs {
			if err := a.Send(b.Addr(), m); err != nil {
				return false
			}
		}
		for _, m := range msgs {
			_, data, err := b.Recv()
			if err != nil || !bytes.Equal(data, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInprocEndpointsListing(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("lst-a")
	b, _ := n.Listen("lst-b")
	eps := n.Endpoints()
	if len(eps) != 2 {
		t.Fatalf("%d endpoints", len(eps))
	}
	b.Close()
	if len(n.Endpoints()) != 1 || n.Endpoints()[0] != a.Addr() {
		t.Fatalf("endpoints after close: %v", n.Endpoints())
	}
}

// TestTCPConnReusedAndDroppedOnPeerRestart: the cached connection to a
// peer is replaced after the peer goes away and a send fails.
func TestTCPConnDropAndRedial(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	baddr := b.Addr()
	// Establish the cached connection.
	if err := a.Send(baddr, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	b.Close()
	// Sends to the dead peer drop silently (first may ride the dead
	// cached conn, later ones redial and fail to connect).
	for i := 0; i < 3; i++ {
		if err := a.Send(baddr, []byte("x")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A new listener on a fresh port is reachable again.
	c, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := a.Send(c.Addr(), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	_, data, err := c.Recv()
	if err != nil || string(data) != "fresh" {
		t.Fatalf("recv after redial: %v %q", err, data)
	}
}

func TestTCPSendToNonTCPAddress(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send("inproc://nope", nil); err == nil {
		t.Fatal("non-tcp address accepted")
	}
}
