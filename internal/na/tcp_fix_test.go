package na

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// waitGoroutines polls until the process goroutine count drops to at most
// want, failing with a full stack dump if it never does.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines: have %d, want <= %d\n%s", n, want, buf[:runtime.Stack(buf, true)])
}

// TestTCPCloseReapsAcceptedConns: inbound connections (and their readLoop
// goroutines) must die with the endpoint. Before the fix only outbound
// dials were tracked, so an accepted conn whose dialer stayed alive kept a
// readLoop blocked in readFrame forever after Close.
func TestTCPCloseReapsAcceptedConns(t *testing.T) {
	dialer, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()

	baseline := runtime.NumGoroutine()
	victim, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Establish an inbound conn at victim; the dialer stays up, so only
	// victim's Close can reap the accepted side.
	if err := dialer.Send(victim.Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := victim.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	// victim added an acceptLoop and one readLoop; both must be gone.
	waitGoroutines(t, baseline)
}

// TestTCPStalledPeerDoesNotWedgeSenders: a peer that accepts but never
// reads must not block Send forever. The write deadline fires, the conn is
// dropped (datagram semantics: the frame is lost), and later sends re-dial.
func TestTCPStalledPeerDoesNotWedgeSenders(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var cmu sync.Mutex
	var stalled []net.Conn
	defer func() {
		cmu.Lock()
		for _, c := range stalled {
			c.Close()
		}
		cmu.Unlock()
	}()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			cmu.Lock()
			stalled = append(stalled, c) // accepted, never read
			cmu.Unlock()
		}
	}()

	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.(*tcpEP).writeTimeout = 200 * time.Millisecond

	to := "tcp://" + l.Addr().String()
	payload := make([]byte, 1<<20)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Enough 1 MiB frames to overrun any kernel socket buffer several
		// times over; every Send must return (nil: lost datagram), bounded
		// by the write deadline.
		for i := 0; i < 16; i++ {
			if err := ep.Send(to, payload); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Send wedged on a stalled peer; write deadline did not fire")
	}
}

// TestTCPDialErrorClassification: malformed addresses are ErrNoRoute
// (typed errors.As classification, not substring matching); a refused
// connection is a silently lost datagram.
func TestTCPDialErrorClassification(t *testing.T) {
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	if err := ep.Send("tcp://127.0.0.1", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("missing port: err = %v, want ErrNoRoute", err)
	}
	if err := ep.Send("tcp://127.0.0.1:99999", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("invalid port: err = %v, want ErrNoRoute", err)
	}
	// A dead-but-well-formed address: grab a free port, close it again.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "tcp://" + l.Addr().String()
	l.Close()
	if err := ep.Send(dead, []byte("x")); err != nil {
		t.Fatalf("refused conn: err = %v, want nil (lost datagram)", err)
	}
}

// TestWriteFrameGathered: header+sender and payload leave as one gathered
// write on a real TCP conn (no second assembly buffer, no allocation per
// send), frames round-trip back to back, and a connection's repeated sender
// address is one string, not one per frame.
func TestWriteFrameGathered(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	tc := newTCPConn(raw, "tcp://1.2.3.4:5")
	frames := [][]byte{bytes.Repeat([]byte{0xAB}, 3000), {}, bytes.Repeat([]byte{0xCD}, 70000)}
	written := make(chan struct{})
	go func() {
		defer close(written)
		for _, data := range frames {
			if err := tc.writeFrame(data[:len(data)/3], data[len(data)/3:]); err != nil {
				t.Errorf("writeFrame: %v", err)
			}
		}
	}()
	var from string
	hdr := make([]byte, 8)
	for i, want := range frames {
		prev := from
		var got []byte
		from, got, err = readFrame(peer, hdr, from)
		if err != nil {
			t.Fatal(err)
		}
		if from != "tcp://1.2.3.4:5" || !bytes.Equal(got, want) {
			t.Fatalf("frame %d mismatch: from=%q len=%d", i, from, len(got))
		}
		if i > 0 && unsafe.StringData(from) != unsafe.StringData(prev) {
			t.Fatalf("frame %d allocated a new sender string", i)
		}
	}
	<-written
	if tc.iov[1] != nil || tc.iov[2] != nil {
		t.Fatal("writeFrame retained the caller's payload")
	}
	small := make([]byte, 64)
	go io.Copy(io.Discard, peer)
	if allocs := testing.AllocsPerRun(50, func() { tc.writeFrame(nil, small) }); allocs > 0 {
		t.Fatalf("writeFrame allocates %.1f times per frame", allocs)
	}
}
