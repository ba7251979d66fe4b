package mercury

import (
	"bytes"
	"encoding/binary"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"colza/internal/na"
)

// TestBulkPullOverSharedMemory: pulls against a colocated exposer with an
// arena copy straight out of the exposer's mapped segment — the chunked
// bulk-pull RPC never runs.
func TestBulkPullOverSharedMemory(t *testing.T) {
	ca, cb, ra, rb := classPair(t, "sm")
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	b := ca.Expose(payload)
	defer ca.Release(b)

	got, err := pullAll(cb, b)
	if err != nil {
		t.Fatalf("PullBulkInto: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("pulled bytes differ")
	}
	if got := rb.Counter("na.shm.pull.local").Value(); got != 1 {
		t.Fatalf("na.shm.pull.local = %d, want 1", got)
	}
	if got := rb.Counter("mercury.call.count{rpc=__mercury/bulk_pull}").Value(); got != 0 {
		t.Fatalf("bulk-pull RPC ran %d times; zero-copy path missed", got)
	}
	if got := ra.Gauge("na.shm.mapped.bytes").Value(); got != int64(len(payload)) {
		t.Fatalf("na.shm.mapped.bytes = %d, want %d", got, len(payload))
	}
}

// TestBorrowBulkOverSharedMemory: a colocated borrower reads an in-place
// region where it lies — one local hit, no bulk-pull RPC — and the view
// outlives the owner's Release: the span is quarantined while the owner
// reserves and rewrites the rest of its arena, ExposedBytes is back to 0 at
// once, and the span returns to the arena after done. A borrow of the
// released handle falls back to the RPC path, which refuses it.
func TestBorrowBulkOverSharedMemory(t *testing.T) {
	ca, cb, ra, rb := classPair(t, "sm")
	const size = 256 << 10
	r, span := ca.Reserve(size)
	for i := range span {
		span[i] = byte(i * 17)
	}
	b := ca.ExposeReserved(r, size)
	view, done, err := cb.BorrowBulk(b)
	if err != nil || !bytes.Equal(view, span) {
		t.Fatalf("borrow: err=%v, bytes equal=%v", err, bytes.Equal(view, span))
	}
	want := bytes.Clone(view)
	if local := rb.Counter("na.shm.pull.local").Value(); local != 1 {
		t.Fatalf("na.shm.pull.local = %d, want 1", local)
	}
	if got := rb.Counter("mercury.call.count{rpc=__mercury/bulk_pull}").Value(); got != 0 {
		t.Fatalf("bulk-pull RPC ran %d times for a colocated borrow", got)
	}
	ca.Release(b)
	if got := ra.Gauge("na.shm.quarantined.bytes").Value(); got != size {
		t.Fatalf("na.shm.quarantined.bytes = %d with the released region borrowed, want %d", got, size)
	}
	if got := ca.ExposedBytes(); got != 0 {
		t.Fatalf("ExposedBytes = %d after the release, want 0", got)
	}
	for i := 0; i < 8; i++ {
		r, span := ca.Reserve(size)
		if span == nil {
			t.Fatalf("reserve %d failed", i)
		}
		for j := range span {
			span[j] = 0xFF
		}
		ca.Release(ca.ExposeReserved(r, size))
	}
	if !bytes.Equal(view, want) {
		t.Fatal("the borrowed bytes changed after the owner's release")
	}
	done()
	r, _ = ca.Reserve(16) // reclaims the span nobody pins any more
	ca.Release(r)
	if got := ra.Gauge("na.shm.quarantined.bytes").Value(); got != 0 {
		t.Fatalf("na.shm.quarantined.bytes = %d after done, want 0", got)
	}
	if _, _, err := cb.BorrowBulk(b); err == nil || !strings.Contains(err.Error(), ErrBadBulk.Error()) {
		t.Fatalf("borrow of a released region: want remote ErrBadBulk, got %v", err)
	}
}

// TestBulkUseAfterReleaseOverSM: after Release the shared slot is
// withdrawn and the pull falls back to the RPC path, which stays
// authoritative and reports ErrBadBulk — the §7 guard survives the
// zero-copy shortcut.
func TestBulkUseAfterReleaseOverSM(t *testing.T) {
	ca, cb, ra, _ := classPair(t, "sm")
	payload := make([]byte, 8<<10)
	b := ca.Expose(payload)
	ca.Release(b)
	// The failure crosses the wire as a remote error, so match the
	// ErrBadBulk text rather than the sentinel value.
	if _, err := pullAll(cb, b); err == nil || !strings.Contains(err.Error(), ErrBadBulk.Error()) {
		t.Fatalf("use-after-release: want remote ErrBadBulk, got %v", err)
	}
	if got := ra.Gauge("na.shm.mapped.bytes").Value(); got != 0 {
		t.Fatalf("released region still mapped: %d bytes", got)
	}
}

// TestBulkReserveExposeInPlace: a region assembled in a reservation is
// exposed without a copy — a colocated puller reads the bytes written into
// the span — and Release frees the span whether or not it was exposed. On an
// endpoint without an arena Reserve declines.
func TestBulkReserveExposeInPlace(t *testing.T) {
	ca, cb, ra, rb := classPair(t, "sm")
	defer VerifyNoExposedLeaks(t, ca)
	r, span := ca.Reserve(256 << 10)
	if span == nil {
		t.Fatal("reserve failed")
	}
	for i := range span[:100<<10] {
		span[i] = byte(i * 13)
	}
	if got := ca.ExposedBytes(); got != 256<<10 {
		t.Fatalf("ExposedBytes with a reservation held = %d, want %d", got, 256<<10)
	}
	b := ca.ExposeReserved(r, 100<<10)
	if b.Size != 100<<10 || b.ID != r.ID {
		t.Fatalf("exposed handle %+v, want reservation %d's first %d bytes", b, r.ID, 100<<10)
	}
	for _, puller := range []*Class{cb, ca} { // colocated, and the owner itself
		got, err := pullAll(puller, b)
		if err != nil || !bytes.Equal(got, span[:100<<10]) {
			t.Fatalf("pull by %s: err=%v, bytes equal=%v", puller.Addr(), err, bytes.Equal(got, span[:100<<10]))
		}
	}
	if got := rb.Counter("na.shm.pull.local").Value(); got != 1 {
		t.Fatalf("na.shm.pull.local = %d, want 1", got)
	}
	if got := ra.Gauge("mercury.bulk.exposed.bytes").Value(); got != 100<<10 {
		t.Fatalf("mercury.bulk.exposed.bytes = %d, want the %d exposed", got, 100<<10)
	}
	ca.Release(b)
	// A reservation released without ever being exposed.
	r2, span2 := ca.Reserve(4096)
	if span2 == nil {
		t.Fatal("second reserve failed")
	}
	ca.Release(r2)
	if got := ra.Gauge("na.shm.mapped.bytes").Value(); got != 0 {
		t.Fatalf("na.shm.mapped.bytes after the releases = %d, want 0", got)
	}
	if got := ra.Gauge("mercury.bulk.exposed.bytes").Value(); got != 0 {
		t.Fatalf("mercury.bulk.exposed.bytes after the releases = %d, want 0", got)
	}
	// Exposing a released reservation publishes nothing: pulls fail.
	stale := ca.ExposeReserved(r2, 16)
	if _, err := pullAll(cb, stale); err == nil {
		t.Fatal("pulled a released reservation")
	}

	tcp, _, _, _ := classPair(t, "tcp")
	if _, span := tcp.Reserve(4096); span != nil {
		t.Fatal("an endpoint without an arena reserved a span")
	}
}

// TestBulkRPCPullOfReservedRacesRelease: a peer that cannot map the arena
// pulls an in-place region over RPC while its owner releases it and fills
// the recycled span with the next region. The served chunk must be copied
// out of the span before the release can take it: every pull returns
// ErrBadBulk or exactly the bytes exposed under its handle, never the next
// region's.
func TestBulkRPCPullOfReservedRacesRelease(t *testing.T) {
	epA, err := na.ListenDual("127.0.0.1:0", t.TempDir(), "a")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	owner, peer := New(epA), New(epB)
	defer func() { owner.Close(); peer.Close() }()
	defer VerifyNoExposedLeaks(t, owner)

	// The release waits for the first pull of its round to reach the owner,
	// so that one is served while the release runs and the others after it.
	arrived := make(chan struct{}, 1)
	owner.Register(bulkPullRPC, func(req Request) ([]byte, error) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		return owner.handleBulkPull(req)
	})
	defer owner.Register(bulkPullRPC, owner.handleBulkPull)
	const size, rounds, pullers = 64 << 10, 60, 3
	var pulled, refused atomic.Int64
	var prev sync.WaitGroup
	for round := 0; round < rounds; round++ {
		r, span := owner.Reserve(size)
		if span == nil {
			t.Fatalf("round %d: reserve failed", round)
		}
		for i := range span {
			span[i] = byte(round*7 + i)
		}
		b := owner.ExposeReserved(r, size)
		prev.Wait() // the last round's pulls saw its span refilled with this round's bytes
		select {
		case <-arrived: // left over from the last round
		default:
		}
		prev.Add(pullers)
		for g := 0; g < pullers; g++ {
			go func(round int) {
				defer prev.Done()
				got, err := pullAll(peer, b)
				if err != nil {
					if !strings.Contains(err.Error(), ErrBadBulk.Error()) {
						t.Errorf("round %d: pull failed with %v, want ErrBadBulk", round, err)
					}
					refused.Add(1)
					return
				}
				for i, v := range got {
					if v != byte(round*7+i) {
						t.Errorf("round %d: byte %d is %d, not the exposed %d", round, i, v, byte(round*7+i))
						return
					}
				}
				pulled.Add(1)
			}(round)
		}
		<-arrived
		owner.Release(b)
	}
	prev.Wait()
	t.Logf("%d pulls got the exposed bytes, %d were refused", pulled.Load(), refused.Load())
}

// TestBulkArenaMissFallsBackToRPC: a region the exposer could not publish
// (its id lands on an export-table slot a live region holds) is still
// pullable — the arena miss sends the puller down the chunked RPC path,
// byte-identical, over the same dual endpoints, whose one send path is the
// gathered one.
func TestBulkArenaMissFallsBackToRPC(t *testing.T) {
	ca, cb, ra, rb := classPair(t, "sm")
	holder := ca.Expose([]byte("holds the slot"))
	defer ca.Release(holder)
	// Bulk ids count up by one; the table has 4096 slots (the default, what
	// ListenDual gives), so the 4096th id after holder's is on its slot.
	ca.nextBk.Add(4096 - 1)
	payload := make([]byte, eagerLimit+4096)
	for i := range payload {
		payload[i] = byte(i * 29)
	}
	b := ca.Expose(payload)
	defer ca.Release(b)
	if got := ra.Counter("na.shm.expose.fallback").Value(); got != 1 {
		t.Fatalf("na.shm.expose.fallback = %d, want 1: the ids did not collide", got)
	}

	got, err := pullAll(cb, b)
	if err != nil {
		t.Fatalf("PullBulkInto: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("pulled bytes differ")
	}
	if local, fell := rb.Counter("na.shm.pull.local").Value(), rb.Counter("na.shm.pull.fallback").Value(); local != 0 || fell != 1 {
		t.Fatalf("na.shm.pull.local = %d, na.shm.pull.fallback = %d, want 0 and 1", local, fell)
	}
	if served := ra.Counter("mercury.serve.count{rpc=__mercury/bulk_pull}").Value(); served == 0 {
		t.Fatal("the exposer served no bulk_pull RPC: where did the bytes come from?")
	}
}

// TestBulkPullFallsBackOnRefusedArena: a peer on the puller's unix socket
// that claims the exposer's address and hands over a descriptor that is no
// sealed memfd — here a regular file — replaces the exposer's arena with a
// refused offer. Every pull from the exposer then falls back, counted, and
// the chunked RPC pull serves the exposed bytes.
func TestBulkPullFallsBackOnRefusedArena(t *testing.T) {
	ca, cb, ra, rb := classPair(t, "sm")
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	b := ca.Expose(payload)
	defer ca.Release(b)

	file, err := os.CreateTemp(t.TempDir(), "arena")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	smPart, _ := na.SplitAddr(cb.Addr())
	c, err := net.Dial("unix", "@"+smPart[strings.LastIndex(smPart, "/")+1:])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The opening message of a unix-socket connection: an empty frame from
	// the claimed address, its first byte carrying the descriptor.
	offer := binary.LittleEndian.AppendUint32(nil, uint32(len(ca.Addr())))
	offer = append(binary.LittleEndian.AppendUint32(offer, 0), ca.Addr()...)
	if _, _, err := c.(*net.UnixConn).WriteMsgUnix(offer, syscall.UnixRights(int(file.Fd())), nil); err != nil {
		t.Fatal(err)
	}

	// The offer is filed concurrently: pull until a pull falls back.
	deadline := time.Now().Add(10 * time.Second)
	for rb.Counter("na.shm.pull.fallback").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the refused offer never displaced the exposer's arena")
		}
		if got, err := pullAll(cb, b); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("pull: err=%v, bytes equal=%v", err, bytes.Equal(got, payload))
		}
	}
	local := rb.Counter("na.shm.pull.local").Value()
	if got, err := pullAll(cb, b); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pull after the refused offer: err=%v, bytes equal=%v", err, bytes.Equal(got, payload))
	}
	if fell, l := rb.Counter("na.shm.pull.fallback").Value(), rb.Counter("na.shm.pull.local").Value(); fell != 2 || l != local {
		t.Fatalf("na.shm.pull.fallback = %d, na.shm.pull.local %d → %d, want 2 and no local pull", fell, local, l)
	}
	if served := ra.Counter("mercury.serve.count{rpc=__mercury/bulk_pull}").Value(); served < 2 {
		t.Fatalf("the exposer served %d bulk_pull RPCs, want >= 2", served)
	}
}
