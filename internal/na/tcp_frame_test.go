package na

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/obs"
)

// rawFrame assembles a frame as a peer puts it on the wire, with the two
// length words free to lie.
func rawFrame(fromLen, dataLen uint32, from, data []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, fromLen)
	f = binary.LittleEndian.AppendUint32(f, dataLen)
	f = append(f, from...)
	return append(f, data...)
}

// TestReadFrameTruncatedAndHostile: a frame cut short anywhere, or whose
// length words claim more than the limits allow, fails the read without a
// panic and without an allocation sized by the claim; and the one buffer a
// read takes from the pool — for the body — goes back when the body is cut
// short, while a read that fails earlier takes nothing and returns nothing.
func TestReadFrameTruncatedAndHostile(t *testing.T) {
	from := []byte("tcp://1.2.3.4:5")
	body := bytes.Repeat([]byte{0xEE}, 1000)
	whole := rawFrame(uint32(len(from)), uint32(len(body)), from, body)
	for _, c := range []struct {
		name     string
		stream   []byte
		want     error // nil: any read error
		bodyRead bool  // the read got as far as taking the body's buffer
	}{
		{"header cut short", whole[:5], io.ErrUnexpectedEOF, false},
		{"no header", nil, io.EOF, false},
		{"sender too long", rawFrame(maxFromLen+1, 0, nil, nil), ErrTooLarge, false},
		{"body too long", rawFrame(0, maxFrame+1, nil, nil), ErrTooLarge, false},
		{"sender cut short", whole[:8+len(from)-3], io.ErrUnexpectedEOF, false},
		{"body cut mid-way", whole[:len(whole)-len(body)/2], io.ErrUnexpectedEOF, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			g0, _, p0 := bufpool.Stats()
			_, data, err := readFrame(bytes.NewReader(c.stream), make([]byte, 8+maxFromLen), "")
			g1, _, p1 := bufpool.Stats()
			if !errors.Is(err, c.want) || data != nil {
				t.Fatalf("err = %v (data %d bytes), want %v", err, len(data), c.want)
			}
			gets, puts := g1-g0, p1-p0
			if c.bodyRead && (gets != 1 || puts != 1) || !c.bodyRead && (gets != 0 || puts != 0) {
				t.Fatalf("%d pool gets, %d puts", gets, puts)
			}
		})
	}
	// The intact frame reads back whole, into a buffer that starts at the
	// pool buffer's start: its capacity is the class's.
	got, data, err := readFrame(bytes.NewReader(whole), make([]byte, 8+maxFromLen), "")
	if err != nil || got != string(from) || !bytes.Equal(data, body) || cap(data) != 1024 {
		t.Fatalf("intact frame: from %q, %d bytes (cap %d), %v", got, len(data), cap(data), err)
	}
	bufpool.Put(data)
}

// TestTCPHostileFrameDropsOnlyItsConn: a peer whose frame claims an
// oversized sender loses its connection; the endpoint keeps serving
// everyone else.
func TestTCPHostileFrameDropsOnlyItsConn(t *testing.T) {
	ep, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	raw, err := net.Dial("tcp", ep.Addr()[len(schemeTCP):])
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(rawFrame(maxFromLen+1, 4, nil, []byte("evil"))); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("the hostile connection stayed open")
	}
	good, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if err := good.Send(ep.Addr(), []byte("fine")); err != nil {
		t.Fatal(err)
	}
	if from, data, err := ep.Recv(); err != nil || from != good.Addr() || string(data) != "fine" {
		t.Fatalf("after the hostile frame: %q %q %v", from, data, err)
	}
}

// TestTCPReadLoopReturnsUnqueuedFrame: a frame read after the receive queue
// closed is put back in the pool, not dropped on the floor, and the loop
// ends with its connection.
func TestTCPReadLoopReturnsUnqueuedFrame(t *testing.T) {
	ep := &tcpEP{q: newPktQueue(), accepted: make(map[net.Conn]struct{})}
	ep.q.close()
	local, remote := net.Pipe()
	done := make(chan struct{})
	go func() {
		ep.readLoop(local)
		close(done)
	}()
	_, _, p0 := bufpool.Stats()
	if _, err := remote.Write(rawFrame(1, 512, []byte("x"), make([]byte, 512))); err != nil {
		t.Fatal(err)
	}
	<-done
	if _, _, p1 := bufpool.Stats(); p1 == p0 {
		t.Fatal("the unqueued frame was not put back")
	}
	if _, err := remote.Write([]byte{0}); err == nil {
		t.Fatal("readLoop left its connection open")
	}
}

// TestTCPEndpointEdges: a listen address that cannot be bound fails, the
// observer reports the queue depth, and a Send after Close is a lost
// datagram, not a dial.
func TestTCPEndpointEdges(t *testing.T) {
	if _, err := ListenTCP("no-such-host-port"); err == nil {
		t.Fatal("listening on a malformed address succeeded")
	}
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	b.SetObserver(nil)
	b.SetObserver(reg)
	if err := a.Send(b.Addr(), []byte("queued")); err != nil {
		t.Fatal(err)
	}
	depth := reg.Gauge("na.queue.depth", "transport", "tcp")
	deadline := time.Now().Add(5 * time.Second)
	for depth.Value() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if depth.Value() != 1 {
		t.Fatalf("queue depth %d with one frame queued", depth.Value())
	}
	b.Close()
	if err := b.Send(a.Addr(), []byte("late")); err != nil {
		t.Fatalf("send after close: %v", err)
	}
	if n := len(b.(*tcpEP).conns); n != 0 {
		t.Fatalf("a closed endpoint holds %d connections", n)
	}
}
