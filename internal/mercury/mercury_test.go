package mercury

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"colza/internal/na"
)

func pairT(t *testing.T) (*Class, *Class) {
	t.Helper()
	net := na.NewInprocNetwork()
	e1, err := net.Listen("c1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := net.Listen("c2")
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := New(e1), New(e2)
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return c1, c2
}

func TestCallRoundTrip(t *testing.T) {
	c1, c2 := pairT(t)
	c2.Register("echo", func(req Request) ([]byte, error) {
		return append([]byte("echo:"), req.Payload...), nil
	})
	out, err := c1.Call(c2.Addr(), "echo", []byte("ping"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:ping" {
		t.Fatalf("out = %q", out)
	}
}

// TestCallEach: one round reaches every target before it waits on any —
// the first target answers only once the last one has its request — and
// each target's outcome lands at its own index: a response, a remote
// error, an unknown RPC, a send that found no route, and, under the one
// timer, a target that never answers. Twenty targets take the round past
// its on-stack bookkeeping.
func TestCallEach(t *testing.T) {
	net := na.NewInprocNetwork()
	listen := func(name string) *Class {
		ep, err := net.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		c := New(ep)
		t.Cleanup(func() { c.Close() })
		return c
	}
	caller := listen("each-caller")
	const n = 20
	last := make(chan struct{})
	var to []string
	for i := 0; i < n; i++ {
		c := listen(fmt.Sprintf("each-%d", i))
		i := i
		c.Register("rpc", func(req Request) ([]byte, error) {
			switch i {
			case 0:
				<-last // answered only if the round sent to n-1 before waiting
			case 3:
				return nil, errors.New("refused")
			case n - 1:
				close(last)
			}
			return append([]byte(fmt.Sprint(i, ":")), req.Payload...), nil
		})
		to = append(to, c.Addr())
	}
	mute := listen("each-mute")
	mute.Register("rpc", func(req Request) ([]byte, error) {
		time.Sleep(300 * time.Millisecond)
		return nil, nil
	})
	unknown := listen("each-unknown")
	to = append(to, unknown.Addr(), "inproc://each-nowhere", mute.Addr())
	outs, errs := make([][]byte, len(to)), make([]error, len(to))
	caller.CallEach(to, "rpc", []byte("x"), 150*time.Millisecond, outs, errs)
	for i := range to {
		var want string
		switch {
		case i == 3:
			var re *RemoteError
			if !errors.As(errs[i], &re) || outs[i] != nil {
				t.Errorf("target 3: %q, %v; want a remote error", outs[i], errs[i])
			}
			continue
		case i == n:
			if !errors.Is(errs[i], ErrUnknownRPC) {
				t.Errorf("unknown target: %v", errs[i])
			}
			continue
		case i == n+1:
			if !errors.Is(errs[i], na.ErrNoRoute) {
				t.Errorf("unroutable target: %v", errs[i])
			}
			continue
		case i == n+2:
			if !errors.Is(errs[i], ErrTimeout) {
				t.Errorf("mute target: %v", errs[i])
			}
			continue
		default:
			want = fmt.Sprint(i, ":x")
		}
		if errs[i] != nil || string(outs[i]) != want {
			t.Errorf("target %d: %q, %v; want %q", i, outs[i], errs[i], want)
		}
		Recycle(outs[i])
	}
}

// TestOneWayFrames: SendFrame's head and body reach the peer's frame handler
// as one body, lying in the whole received frame past its kind byte; once
// the peer's endpoint closes, the handler hears so.
func TestOneWayFrames(t *testing.T) {
	c1, c2 := pairT(t)
	got := make(chan string, 2)
	c2.SetFrameHandler(func(body, frame []byte, err error) {
		if body != nil && (len(frame) != 1+len(body) || &frame[1] != &body[0]) {
			err = fmt.Errorf("body is not the frame past its kind byte")
		}
		got <- fmt.Sprint(string(body), err)
	})
	if err := c1.SendFrame(c2.Addr(), []byte("head|"), []byte("body")); err != nil {
		t.Fatal(err)
	}
	if f := <-got; f != "head|body<nil>" {
		t.Fatalf("handler got %q", f)
	}
	c2.Close()
	if f := <-got; f != na.ErrClosed.Error() {
		t.Fatalf("handler got %q after close", f)
	}
}

func TestCallSeesCallerAddress(t *testing.T) {
	c1, c2 := pairT(t)
	c2.Register("who", func(req Request) ([]byte, error) {
		return []byte(req.From), nil
	})
	out, err := c1.Call(c2.Addr(), "who", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != c1.Addr() {
		t.Fatalf("handler saw %q, want %q", out, c1.Addr())
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	c1, c2 := pairT(t)
	c2.Register("fail", func(req Request) ([]byte, error) {
		return nil, fmt.Errorf("pipeline exploded")
	})
	_, err := c1.Call(c2.Addr(), "fail", nil, time.Second)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Msg != "pipeline exploded" {
		t.Fatalf("msg = %q", re.Msg)
	}
}

func TestUnknownRPC(t *testing.T) {
	c1, c2 := pairT(t)
	_, err := c1.Call(c2.Addr(), "nope", nil, time.Second)
	if !errors.Is(err, ErrUnknownRPC) {
		t.Fatalf("err = %v, want ErrUnknownRPC", err)
	}
}

func TestDeregister(t *testing.T) {
	c1, c2 := pairT(t)
	c2.Register("tmp", func(req Request) ([]byte, error) { return nil, nil })
	if _, err := c1.Call(c2.Addr(), "tmp", nil, time.Second); err != nil {
		t.Fatal(err)
	}
	c2.Deregister("tmp")
	if _, err := c1.Call(c2.Addr(), "tmp", nil, time.Second); !errors.Is(err, ErrUnknownRPC) {
		t.Fatalf("err = %v, want ErrUnknownRPC after deregister", err)
	}
}

func TestCallTimeoutOnSilentPeer(t *testing.T) {
	net := na.NewInprocNetwork()
	e1, _ := net.Listen("t1")
	e2, _ := net.Listen("t2")
	c1 := New(e1)
	defer c1.Close()
	addr2 := e2.Addr()
	e2.Close() // peer crashed: datagrams silently lost
	start := time.Now()
	_, err := c1.Call(addr2, "anything", nil, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
}

func TestConcurrentCalls(t *testing.T) {
	c1, c2 := pairT(t)
	c2.Register("double", func(req Request) ([]byte, error) {
		return append(req.Payload, req.Payload...), nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := []byte(fmt.Sprintf("m%d", i))
			out, err := c1.Call(c2.Addr(), "double", in, 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(out, append(in, in...)) {
				t.Errorf("call %d: got %q", i, out)
			}
		}(i)
	}
	wg.Wait()
}

func TestHandlerMayIssueRPC(t *testing.T) {
	c1, c2 := pairT(t)
	c1.Register("leaf", func(req Request) ([]byte, error) {
		return []byte("leaf-data"), nil
	})
	c2.Register("relay", func(req Request) ([]byte, error) {
		return c2.Call(req.From, "leaf", nil, time.Second)
	})
	out, err := c1.Call(c2.Addr(), "relay", nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "leaf-data" {
		t.Fatalf("out = %q", out)
	}
}

func TestBulkExposePullRelease(t *testing.T) {
	c1, c2 := pairT(t)
	data := bytes.Repeat([]byte{0xAB, 0xCD}, 1000)
	h := c1.Expose(data)
	got, err := pullAll(c2, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pulled data mismatch")
	}
	c1.Release(h)
	if _, err := pullAll(c2, h); err == nil {
		t.Fatal("pull after release should fail")
	}
}

func TestBulkEmptyRegion(t *testing.T) {
	c1, c2 := pairT(t)
	h := c1.Expose(nil)
	got, err := pullAll(c2, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestBulkHandleEncodeDecode(t *testing.T) {
	b := Bulk{Addr: "inproc://somewhere", ID: 42, Size: 1 << 20}
	enc := append(b.Encode(), 0xFF, 0xFE)
	dec, rest, err := DecodeBulk(enc, "")
	if err != nil {
		t.Fatal(err)
	}
	if !sameBulk(dec, b) || dec.inFrame {
		t.Fatalf("dec = %+v, want %+v", dec, b)
	}
	if len(rest) != 2 || rest[0] != 0xFF {
		t.Fatalf("rest = %v", rest)
	}
	if _, _, err := DecodeBulk([]byte{1, 2, 3}, ""); err == nil {
		t.Fatal("expected error on short handle")
	}
}

func TestCallOverTCP(t *testing.T) {
	e1, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := New(e1), New(e2)
	defer c1.Close()
	defer c2.Close()
	c2.Register("sum", func(req Request) ([]byte, error) {
		var s byte
		for _, b := range req.Payload {
			s += b
		}
		return []byte{s}, nil
	})
	out, err := c1.Call(c2.Addr(), "sum", []byte{1, 2, 3, 4}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 10 {
		t.Fatalf("sum = %d", out[0])
	}
	// Bulk over TCP too.
	region := bytes.Repeat([]byte{7}, 100000)
	h := c1.Expose(region)
	got, err := pullAll(c2, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, region) {
		t.Fatal("tcp bulk mismatch")
	}
}

// Property: any payload echoes back unchanged.
func TestQuickEchoAnyPayload(t *testing.T) {
	c1, c2 := pairT(t)
	c2.Register("echo", func(req Request) ([]byte, error) { return req.Payload, nil })
	f := func(payload []byte) bool {
		out, err := c1.Call(c2.Addr(), "echo", payload, 5*time.Second)
		return err == nil && bytes.Equal(out, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// pullAll pulls the whole region behind b into a fresh buffer.
func pullAll(c *Class, b Bulk) ([]byte, error) {
	if b.Size < 0 {
		return nil, ErrBadBulk
	}
	dst := make([]byte, b.Size)
	if err := c.PullBulkInto(b, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// sameBulk compares two handles field by field (Bulk holds a slice, so ==
// does not apply); inFrame is provenance, not identity, and is left out.
func sameBulk(a, b Bulk) bool {
	return a.Addr == b.Addr && a.ID == b.ID && a.Size == b.Size &&
		(a.eager == nil) == (b.eager == nil) && bytes.Equal(a.eager, b.eager)
}

func TestRPCNameOf(t *testing.T) {
	frame := append(appendRequestHeader(nil, 7, "colza::prepare"), "payload"...)
	name, ok := RPCNameOf(frame)
	if !ok || name != "colza::prepare" {
		t.Fatalf("RPCNameOf = %q, %v", name, ok)
	}
	// Responses and junk are not requests.
	if _, ok := RPCNameOf([]byte{kindResponse, 0, 0, 0, 0, 0, 0, 0, 0, 0}); ok {
		t.Fatal("response frame classified as request")
	}
	if _, ok := RPCNameOf([]byte("short")); ok {
		t.Fatal("junk classified as request")
	}
}
