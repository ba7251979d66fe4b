package mercury

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/na"
)

// patterned fills a payload whose every byte follows from its first eight
// (the seed), so a frame recycled under a handler, or under a response still
// being sent, reads back as the wrong pattern.
func patterned(seed uint64, n int) []byte {
	p := make([]byte, n)
	binary.LittleEndian.PutUint64(p, seed)
	for i := 8; i < n; i++ {
		p[i] = byte(uint64(i)*2654435761 + seed*31)
	}
	return p
}

// checkPattern reports the first byte of p that breaks its seed's pattern.
func checkPattern(p []byte) error {
	if len(p) < 8 {
		return fmt.Errorf("payload of %d bytes", len(p))
	}
	seed := binary.LittleEndian.Uint64(p)
	for i := 8; i < len(p); i++ {
		if p[i] != byte(uint64(i)*2654435761+seed*31) {
			return fmt.Errorf("seed %d: byte %d of %d corrupted", seed, i, len(p))
		}
	}
	return nil
}

// TestRecycledFramesStayIntact: the callee recycles every request frame once
// its serve is over. Concurrent callers send 64 KiB payloads with their own
// patterns; the handler checks its payload, re-reads it from a Defer
// callback (the last moment it is on loan) and echoes it as the response,
// which aliases the frame. Every response must come back intact, and over
// the stream endpoints, whose receives draw from the pool, a warm run must
// miss it only for the responses: those are their callers' to keep, but a
// request frame goes back to the pool after its serve.
func TestRecycledFramesStayIntact(t *testing.T) {
	for _, transport := range []string{"tcp", "sm", "inproc"} {
		t.Run(transport, func(t *testing.T) {
			caller, callee, _, _ := classPair(t, transport)
			var lateCorrupt atomic.Int64
			callee.Register("check", func(req Request) ([]byte, error) {
				if err := checkPattern(req.Payload); err != nil {
					return nil, err
				}
				p := req.Payload
				req.Defer(func() {
					if checkPattern(p) != nil {
						lateCorrupt.Add(1)
					}
				})
				return req.Payload, nil
			})
			const callers, calls, size = 4, 40, 64 << 10
			var seq atomic.Uint64
			round := func() {
				var wg sync.WaitGroup
				errs := make(chan error, callers)
				for w := 0; w < callers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < calls; i++ {
							want := patterned(seq.Add(1), size)
							got, err := caller.Call(callee.Addr(), "check", want, 5*time.Second)
							if err == nil && !bytes.Equal(got, want) {
								err = fmt.Errorf("response of %d bytes differs from the request", len(got))
							}
							if err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
			}
			round() // warm-up: fills the pool classes both sides draw from
			_, missesBefore, _ := bufpool.Stats()
			round()
			_, missesAfter, _ := bufpool.Stats()
			if n := lateCorrupt.Load(); n > 0 {
				t.Fatalf("%d payloads changed before their Defer callbacks ran", n)
			}
			// One miss per call is the response's. A GC between the rounds
			// may empty the pool once; request frames that were not recycled
			// would miss on every call too.
			if misses := missesAfter - missesBefore; !raceEnabled && misses > callers*calls*5/4 {
				t.Fatalf("%d pool misses over %d warm calls: request frames are not recycled", misses, callers*calls)
			}
		})
	}
}

// bulkPullRequest encodes the request pullChunk sends.
func bulkPullRequest(id, off, n uint64) []byte {
	req := make([]byte, 24)
	binary.LittleEndian.PutUint64(req, id)
	binary.LittleEndian.PutUint64(req[8:], off)
	binary.LittleEndian.PutUint64(req[16:], n)
	return req
}

// TestBulkPullHostileRange: a pull request whose offset plus length
// overflows must be refused, not slice past the region — a panic in a
// handler takes the whole exposer down.
func TestBulkPullHostileRange(t *testing.T) {
	caller, exposer := pairT(t)
	region := []byte("0123456789")
	b := exposer.Expose(region)
	defer exposer.Release(b)
	for _, c := range []struct {
		name    string
		off, n  uint64
		wantErr bool
	}{
		{"both 1<<62", 1 << 62, 1 << 62, true},
		{"MaxInt64 and 1", math.MaxInt64, 1, true},
		{"len and 1", uint64(len(region)), 1, true},
		{"len and 0", uint64(len(region)), 0, false},
		{"whole region", 0, uint64(len(region)), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			req := bulkPullRequest(b.ID, c.off, c.n)
			out, err := exposer.handleBulkPull(Request{Payload: req})
			if c.wantErr {
				if !errors.Is(err, ErrBadBulk) {
					t.Fatalf("handler: %q, %v; want ErrBadBulk", out, err)
				}
			} else if err != nil || !bytes.Equal(out, region[c.off:c.off+c.n]) {
				t.Fatalf("handler: %q, %v", out, err)
			}
			// Over the wire the refusal is a remote error, and the exposer
			// still serves afterwards.
			if _, err := caller.Call(exposer.Addr(), bulkPullRPC, req, time.Second); (err != nil) != c.wantErr {
				t.Fatalf("call: %v", err)
			}
			if got, err := pullAll(caller, b); err != nil || !bytes.Equal(got, region) {
				t.Fatalf("pull after the hostile request: %q, %v", got, err)
			}
		})
	}
}

// FuzzBulkPullRequest: whatever a 24-byte pull request says, the handler
// answers ErrBadBulk or a slice inside the region it names, and never
// panics. Requests of any other length are refused outright.
func FuzzBulkPullRequest(f *testing.F) {
	ep, err := na.NewInprocNetwork().Listen("exposer")
	if err != nil {
		f.Fatal(err)
	}
	exposer := New(ep)
	f.Cleanup(func() { exposer.Close() })
	region := []byte("0123456789abcdef")
	b := exposer.Expose(region)
	for _, r := range [][3]uint64{
		{b.ID, 1 << 62, 1 << 62},
		{b.ID, math.MaxInt64, 1},
		{b.ID, uint64(len(region)), 1},
		{b.ID, 0, uint64(len(region))},
		{b.ID, 3, 4},
		{b.ID, math.MaxUint64, 2},
		{b.ID + 1, 0, 1},
	} {
		f.Add(bulkPullRequest(r[0], r[1], r[2]))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, req []byte) {
		out, err := exposer.handleBulkPull(Request{Payload: req})
		if err != nil {
			if !errors.Is(err, ErrBadBulk) {
				t.Fatalf("err = %v, want ErrBadBulk", err)
			}
			return
		}
		off, n := binary.LittleEndian.Uint64(req[8:]), binary.LittleEndian.Uint64(req[16:])
		if len(req) != 24 || binary.LittleEndian.Uint64(req) != b.ID || off > uint64(len(region)) ||
			n != uint64(len(out)) || !bytes.Equal(out, region[off:off+n]) {
			t.Fatalf("request %x served %q", req, out)
		}
	})
}

// TestProgressSurvivesJunkFrames: frames that serve nothing — too short to
// carry a header, of no known kind, a request whose name runs past the
// frame, a response no call waits for, a one-way frame with no handler —
// are dropped (and put back) by the
// progress loop, which goes on serving.
func TestProgressSurvivesJunkFrames(t *testing.T) {
	net := na.NewInprocNetwork()
	ep, err := net.Listen("callee")
	if err != nil {
		t.Fatal(err)
	}
	callee := New(ep)
	defer callee.Close()
	callee.Register("echo", func(req Request) ([]byte, error) { return req.Payload, nil })
	raw, err := net.Listen("raw")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	header := func(kind byte, id uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{kind}, id)
	}
	for _, junk := range [][]byte{
		{kindRequest, 1, 2},
		append(header(7, 1), "what"...),
		binary.LittleEndian.AppendUint32(header(kindRequest, 2), 1<<20),
		header(kindResponse, 3),
		append(header(kindResponse, 4), statusOK, 'x'),
		header(kindFrame, 5),
	} {
		if err := raw.Send(callee.Addr(), junk); err != nil {
			t.Fatal(err)
		}
	}
	caller, err := net.Listen("caller")
	if err != nil {
		t.Fatal(err)
	}
	c := New(caller)
	defer c.Close()
	if out, err := c.Call(callee.Addr(), "echo", []byte("still here"), time.Second); err != nil || string(out) != "still here" {
		t.Fatalf("after junk frames: %q, %v", out, err)
	}
}
