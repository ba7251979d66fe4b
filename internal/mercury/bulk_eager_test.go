package mercury

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"colza/internal/na"
	"colza/internal/obs"
)

// classPair builds an exposer and a fetcher on the named transport, each
// with its own registry.
func classPair(tb testing.TB, transport string) (owner, peer *Class, ownerReg, peerReg *obs.Registry) {
	tb.Helper()
	var epA, epB na.Endpoint
	var err error
	switch transport {
	case "inproc":
		net := na.NewInprocNetwork()
		epA, _ = net.Listen("eager-a")
		epB, _ = net.Listen("eager-b")
	case "tcp":
		if epA, err = na.ListenTCP("127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		if epB, err = na.ListenTCP("127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
	case "sm":
		dir := tb.TempDir()
		if epA, err = na.ListenDual("127.0.0.1:0", dir, "a"); err != nil {
			tb.Fatal(err)
		}
		if epB, err = na.ListenDual("127.0.0.1:0", dir, "b"); err != nil {
			tb.Fatal(err)
		}
	default:
		tb.Fatalf("unknown transport %q", transport)
	}
	owner, peer = New(epA), New(epB)
	tb.Cleanup(func() { owner.Close(); peer.Close() })
	if transport == "sm" {
		// A dual endpoint borrows only from a peer that dialed its unix
		// socket and offered its arena: one call each way does both.
		peer.Register("hello", func(Request) ([]byte, error) { return nil, nil })
		if _, err := owner.Call(peer.Addr(), "hello", nil, 10*time.Second); err != nil {
			tb.Fatal(err)
		}
	}
	ownerReg, peerReg = obs.NewRegistry(), obs.NewRegistry()
	owner.SetObserver(ownerReg)
	peer.SetObserver(peerReg)
	return owner, peer, ownerReg, peerReg
}

// fetchHandler serves the "fetch" RPC the way core's stage handler does: it
// decodes the handle in the request, borrows the region (the frame's bytes,
// the arena's, or a pooled buffer it was pulled into), and reports what it
// got through sink (called before the loan is handed back).
func fetchHandler(c *Class, sink func(region []byte)) Handler {
	return func(req Request) ([]byte, error) {
		b, rest, err := DecodeBulk(req.Payload, req.From)
		if err != nil || len(rest) != 0 {
			return nil, ErrBadBulk
		}
		region, done, err := c.BorrowBulk(b)
		if err != nil {
			return nil, err
		}
		defer done()
		if sink != nil {
			sink(region)
		}
		return nil, nil
	}
}

// TestEagerAndPulledDeliveryIdentical: around the eager limit, on every
// transport, the peer receives exactly the exposed bytes whether they rode in
// the handle or were pulled — and which of the two happened is what the
// counters say: 1 to eagerLimit bytes and no shared arena means eager (no
// pull RPC at all), anything else pulls exactly as before. sm endpoints
// publish every region in the arena and never go eager.
func TestEagerAndPulledDeliveryIdentical(t *testing.T) {
	sizes := []int{0, 1, eagerLimit - 1, eagerLimit, eagerLimit + 1, 4 * eagerLimit}
	for _, transport := range []string{"inproc", "tcp", "sm"} {
		t.Run(transport, func(t *testing.T) {
			owner, peer, ownerReg, peerReg := classPair(t, transport)
			// The handler's copy comes back over a channel: a socket orders
			// nothing as far as the race detector can tell.
			delivered := make(chan []byte, 1)
			peer.Register("fetch", fetchHandler(peer, func(region []byte) {
				delivered <- append([]byte(nil), region...)
			}))
			for _, size := range sizes {
				region := make([]byte, size)
				for i := range region {
					region[i] = byte(i*131 + size)
				}
				eagerBefore := peerReg.Counter("mercury.bulk.eager.count").Value()
				pullsBefore := peerReg.Counter("mercury.bulk.pull.count").Value()
				servedBefore := ownerReg.Counter("mercury.serve.count", "rpc", bulkPullRPC).Value()

				b := owner.Expose(region)
				if _, err := owner.Call(peer.Addr(), "fetch", b.Encode(), 0); err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				got := <-delivered
				// The handle that never crossed the wire pulls as any other,
				// whatever its size (the bulk_pull_mib_s probes rely on it).
				direct, err := pullAll(peer, b)
				owner.Release(b)
				if err != nil {
					t.Fatalf("size %d: in-process handle: %v", size, err)
				}
				if !bytes.Equal(got, region) || !bytes.Equal(direct, region) {
					t.Fatalf("size %d: delivered bytes differ from the exposed region", size)
				}

				eager := peerReg.Counter("mercury.bulk.eager.count").Value() - eagerBefore
				pulls := peerReg.Counter("mercury.bulk.pull.count").Value() - pullsBefore
				served := ownerReg.Counter("mercury.serve.count", "rpc", bulkPullRPC).Value() - servedBefore
				wantEager := int64(0)
				if transport != "sm" && size > 0 && size <= eagerLimit {
					wantEager = 1
				}
				// One pull for the fetch unless it was eager, one for the
				// in-process handle.
				if eager != wantEager || pulls != 2-wantEager {
					t.Fatalf("size %d: eager=%d pulls=%d, want %d and %d", size, eager, pulls, wantEager, 2-wantEager)
				}
				if transport == "sm" && served != 0 {
					t.Fatalf("size %d: %d bulk_pull RPCs served on sm, want 0 (arena)", size, served)
				}
			}
			if got := peerReg.Counter("mercury.bulk.eager.bytes").Value(); transport != "sm" && got != int64(2*eagerLimit) {
				t.Fatalf("mercury.bulk.eager.bytes = %d, want %d", got, 2*eagerLimit)
			}
			if transport == "sm" {
				if peerReg.Counter("mercury.bulk.eager.count").Value() != 0 {
					t.Fatal("an sm endpoint went eager; its regions belong on the arena")
				}
				if peerReg.Counter("na.shm.pull.local").Value() == 0 {
					t.Fatal("na.shm.pull.local = 0: sm pulls did not come from the arena")
				}
			}
			if owner.ExposedBytes() != 0 || ownerReg.Gauge("mercury.bulk.exposed.bytes").Value() != 0 {
				t.Fatal("exposed bytes not back to zero")
			}
		})
	}
}

// TestEagerHandleAliasesFrame: decoding copies nothing — the handle's region
// is the frame's bytes, capped so an append cannot run into what follows —
// and a pull is served from it.
func TestEagerHandleAliasesFrame(t *testing.T) {
	owner, peer, _, peerReg := classPair(t, "inproc")
	region := []byte("0123456789")
	b := owner.Expose(region)
	defer owner.Release(b)
	frame := append(b.Encode(), "tail"...)
	dec, rest, err := DecodeBulk(frame, "")
	if err != nil || string(rest) != "tail" {
		t.Fatalf("decode: %v, rest %q", err, rest)
	}
	got, done, err := peer.BorrowBulk(dec)
	if err != nil || &got[0] != &frame[len(frame)-len("tail")-len(region)] || cap(got) != len(region) {
		t.Fatalf("borrowed region does not alias the frame (err=%v cap=%d)", err, cap(got))
	}
	done()
	pulls := peerReg.Counter("mercury.bulk.pull.count").Value()
	got, done, err = peer.BorrowBulk(b)
	if err != nil || string(got) != "0123456789" || peerReg.Counter("mercury.bulk.pull.count").Value() != pulls+1 {
		t.Fatalf("a handle that never crossed the wire was not pulled: %q, %v", got, err)
	}
	done()
	pulled, err := pullAll(peer, dec)
	if err != nil || string(pulled) != "0123456789" {
		t.Fatalf("pull of an eager handle: %q, %v", pulled, err)
	}
	if !bytes.Equal(dec.Encode(), b.Encode()) {
		t.Fatal("decoded eager handle does not re-encode to the same bytes")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeBulk(frame, ""); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 { // the address string
		t.Fatalf("decoding an eager handle allocates %.1f times", allocs)
	}
}

// BenchmarkEagerSweep is the size sweep eagerLimit was chosen from (table in
// DESIGN.md, "Eager bulk"): one fetch RPC per operation, the region either
// riding in the handle or pulled, whatever its size.
//
//	go test -run '^$' -bench EagerSweep -benchtime 2000x ./internal/mercury/
func BenchmarkEagerSweep(b *testing.B) {
	for _, transport := range []string{"tcp", "inproc"} {
		for size := 4 << 10; size <= 4<<20; size *= 2 {
			for _, mode := range []string{"eager", "pull"} {
				b.Run(fmt.Sprintf("%s/%dk/%s", transport, size>>10, mode), func(b *testing.B) {
					owner, peer, _, _ := classPair(b, transport)
					peer.Register("fetch", fetchHandler(peer, nil))
					region := make([]byte, size)
					frame := make([]byte, 0, 64)
					b.SetBytes(int64(size))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						h := owner.Expose(region)
						h.eager = nil
						if mode == "eager" {
							h.eager = region
						}
						var tail []byte
						frame, tail = h.AppendEncode(frame[:0])
						if _, err := owner.CallGather(peer.Addr(), "fetch", frame, tail, 0); err != nil {
							b.Fatal(err)
						}
						owner.Release(h)
					}
				})
			}
		}
	}
}
