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
	dec, rest, err := DecodeBulk(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBulk(dec, b) || dec.inFrame {
		t.Fatalf("dec = %+v, want %+v", dec, b)
	}
	if len(rest) != 2 || rest[0] != 0xFF {
		t.Fatalf("rest = %v", rest)
	}
	if _, _, err := DecodeBulk([]byte{1, 2, 3}); err == nil {
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
