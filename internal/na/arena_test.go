package na

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"colza/internal/obs"
)

// dualPair builds two dual endpoints and tears them down with the test.
// Neither has dialed the other yet.
func dualPair(t *testing.T) (*DualEndpoint, *DualEndpoint) {
	return dualPairArena(t, defaultArenaBytes, defaultArenaSlots)
}

// dualPairArena is dualPair with the arena geometry chosen by the test.
func dualPairArena(t *testing.T, arenaBytes, arenaSlots int) (*DualEndpoint, *DualEndpoint) {
	t.Helper()
	var eps [2]*DualEndpoint
	for i, name := range []string{"a", "b"} {
		ep, err := listenDual("127.0.0.1:0", name, arenaBytes, arenaSlots)
		if err != nil {
			t.Fatalf("ListenDual %s: %v", name, err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	return eps[0], eps[1]
}

// colocated has owner send puller one frame, so owner dials puller's unix
// socket and offers it its arena, and returns once puller has the frame —
// read after the offer, so the offer is filed by then.
func colocated(t *testing.T, owner, puller *DualEndpoint) {
	t.Helper()
	if err := owner.Send(puller.Addr(), []byte("offer")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, data, err := puller.Recv(); err != nil || string(data) != "offer" {
		t.Fatalf("recv: %q, %v", data, err)
	}
}

// borrowCopy borrows len(dst) bytes of region id from owner, copies them
// into dst and hands the view back; false is a miss.
func borrowCopy(b *DualEndpoint, owner string, id uint64, dst []byte) bool {
	view, done, ok := b.BorrowLocal(owner, id, len(dst))
	if !ok {
		return false
	}
	copy(dst, view)
	done()
	return true
}

func TestSMSendRecv(t *testing.T) {
	a, b := dualPair(t)
	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatalf("send: %v", err)
	}
	from, data, err := b.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if from != a.Addr() || string(data) != "ping" {
		t.Fatalf("got %q from %q", data, from)
	}
	// And the reverse direction over its own connection.
	if err := b.Send(from, []byte("pong")); err != nil {
		t.Fatalf("reply: %v", err)
	}
	from, data, err = a.Recv()
	if err != nil {
		t.Fatalf("recv reply: %v", err)
	}
	if from != b.Addr() || string(data) != "pong" {
		t.Fatalf("got reply %q from %q", data, from)
	}
}

// TestSMNoRoute: an address with no tcp component can never be reached —
// there is no standalone sm:// transport.
func TestSMNoRoute(t *testing.T) {
	a, _ := dualPair(t)
	if err := a.Send("inproc://x", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("inproc address: want ErrNoRoute, got %v", err)
	}
	if err := a.Send("sm://other-host/some/base", []byte("x")); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("bare sm address: want ErrNoRoute, got %v", err)
	}
}

// TestSMCrashedPeerSilentLoss: once a peer existed, frames to it after
// death are lost datagrams, never errors — failure detectors, not
// senders, notice crashes — and the dead connection leaves the cache, so a
// peer that is there is dialed afresh.
func TestSMCrashedPeerSilentLoss(t *testing.T) {
	a, b := dualPair(t)
	if err := a.Send(b.Addr(), []byte("warm")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, _, err := b.Recv(); err != nil {
		t.Fatalf("recv: %v", err)
	}
	addr := b.Addr()
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := a.Send(addr, []byte("into the void")); err != nil {
			t.Fatalf("send to dead peer: %v", err)
		}
		// The first send may still ride the established connection before
		// a write fails; keep sending until the re-dial path (socket gone,
		// port closed) is what we exercised.
		a.mu.Lock()
		n := len(a.conns)
		a.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection to dead peer never torn down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := a.Send(addr, []byte("still void")); err != nil {
		t.Fatalf("send after teardown: %v", err)
	}
	c, err := ListenDual("127.0.0.1:0", "", "c")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := a.Send(c.Addr(), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if _, data, err := c.Recv(); err != nil || string(data) != "fresh" {
		t.Fatalf("recv after redial: %v %q", err, data)
	}
	if got := connNetwork(a, c.Addr()); got != "unix" {
		t.Fatalf("redial went over %q, want unix", got)
	}
}

// TestSMSegmentCleanup: a clean Close leaves nothing behind — not a
// descriptor, not a mapping of an arena, not a dialable socket — and
// nothing of either endpoint was ever a file.
func TestSMSegmentCleanup(t *testing.T) {
	fds, maps := countFDs(t), countArenaMaps(t)
	a, b := dualPair(t)
	colocated(t, a, b)
	if !a.ExposeLocal(1, []byte("bulk bytes")) {
		t.Fatal("ExposeLocal failed")
	}
	var dst [10]byte
	if !borrowCopy(b, a.Addr(), 1, dst[:]) {
		t.Fatal("borrow missed")
	}
	// Each owner maps its own arena, b maps a's table and data area too.
	if got := countArenaMaps(t) - maps; got != 4 {
		t.Errorf("%d arena mappings while open, want 4", got)
	}
	smPart, _ := SplitAddr(b.Addr())
	_, name, _ := smHostSocket(smPart)
	a.ReleaseLocal(1)
	a.Close()
	b.Close()
	if got := countFDs(t); got != fds {
		t.Errorf("%d descriptors open after Close, want the %d before", got, fds)
	}
	if got := countArenaMaps(t); got != maps {
		t.Errorf("%d arena mappings after Close, want the %d before", got, maps)
	}
	if c, err := net.Dial("unix", "@"+name); err == nil {
		c.Close()
		t.Error("a closed endpoint's socket still takes connections")
	}
}

// countFDs counts this process's open descriptors.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// countArenaMaps counts this process's mappings of arena memfds.
func countArenaMaps(t *testing.T) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	return bytes.Count(maps, []byte("/memfd:colza-arena"))
}

func TestSMLocalBulk(t *testing.T) {
	a, b := dualPair(t)
	colocated(t, a, b)
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if !a.ExposeLocal(42, payload) {
		t.Fatal("ExposeLocal failed")
	}
	// Full pull.
	dst := make([]byte, len(payload))
	if !borrowCopy(b, a.Addr(), 42, dst) {
		t.Fatal("full borrow missed")
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("full pull bytes differ")
	}
	// A prefix pull.
	sub := make([]byte, 1000)
	if !borrowCopy(b, a.Addr(), 42, sub) {
		t.Fatal("prefix borrow missed")
	}
	if !bytes.Equal(sub, payload[:1000]) {
		t.Fatal("prefix pull bytes differ")
	}
	// A request longer than the region must decline (RPC path is
	// authoritative).
	if borrowCopy(b, a.Addr(), 42, make([]byte, len(payload)+1)) {
		t.Fatal("out-of-bounds pull should fall back")
	}
	// Unknown id declines.
	if borrowCopy(b, a.Addr(), 999, dst) {
		t.Fatal("unknown id should fall back")
	}
	// Owners that offered this endpoint no arena decline: the owner's
	// address without its sm component or with another, a malformed one,
	// itself.
	smPart, tcpPart := SplitAddr(a.Addr())
	for _, owner := range []string{
		tcpPart,
		smPart,
		DualAddr("sm://other-host/x", tcpPart),
		"sm+tcp://nobase;127.0.0.1:1",
		b.Addr(),
	} {
		if borrowCopy(b, owner, 42, sub) {
			t.Fatalf("pull from %s should fall back", owner)
		}
	}
	// After release the slot is withdrawn.
	a.ReleaseLocal(42)
	if borrowCopy(b, a.Addr(), 42, dst) {
		t.Fatal("released region should fall back")
	}
	// Slot reuse after release: a new id landing on the same slot works.
	if !a.ExposeLocal(42+defaultArenaSlots, payload[:100]) {
		t.Fatal("re-expose on same slot failed")
	}
	small := make([]byte, 100)
	if !borrowCopy(b, a.Addr(), 42+defaultArenaSlots, small) {
		t.Fatal("borrow after slot reuse missed")
	}
	a.ReleaseLocal(42 + defaultArenaSlots)
	a.ReleaseLocal(42) // never-published and already-released ids are no-ops
	b.ReleaseLocal(7)  // so is an endpoint that never exposed
	if a.ExposeLocal(1, nil) {
		t.Fatal("empty region published")
	}
}

// TestReservedSlotMissedUntilPublished: a reserved span is its holder's to
// fill, and a pull of its id misses (done=false) until PublishLocal points
// the slot at it; the reservation holds the slot against colliding ids, a
// publish is held to the span it was reserved with, and a release withdraws
// it again.
func TestReservedSlotMissedUntilPublished(t *testing.T) {
	a, b := dualPairArena(t, 1<<20, 8)
	colocated(t, a, b)
	reg := obs.NewRegistry()
	a.SetObserver(reg)
	const id = 5
	span := a.ReserveLocal(id, 100)
	if len(span) != 100 || cap(span) != 100 {
		t.Fatalf("reserved span len %d cap %d, want 100 and 100", len(span), cap(span))
	}
	for i := range span {
		span[i] = byte(i * 7)
	}
	dst := make([]byte, 60)
	if borrowCopy(b, a.Addr(), id, dst) {
		t.Fatal("borrowed a reserved, unpublished region")
	}
	if a.ExposeLocal(id+8, []byte("collides")) || a.ReserveLocal(id+8, 8) != nil {
		t.Fatal("a colliding id took a slot a reservation holds")
	}
	if a.ReserveLocal(1, 0) != nil {
		t.Fatal("an empty span was reserved")
	}
	for _, n := range []int{0, -1, 101} {
		if a.PublishLocal(id, n) {
			t.Fatalf("published %d bytes of a 100-byte reservation", n)
		}
	}
	if a.PublishLocal(id+1, 1) || b.PublishLocal(id, 1) {
		t.Fatal("published an id that holds no reservation")
	}
	if !a.PublishLocal(id, 60) {
		t.Fatal("publish failed")
	}
	if !borrowCopy(b, a.Addr(), id, dst) || !bytes.Equal(dst, span[:60]) {
		t.Fatal("borrow after publish missed or read other bytes")
	}
	if borrowCopy(b, a.Addr(), id, make([]byte, 61)) {
		t.Fatal("pulled past the published prefix")
	}
	if got := reg.Gauge("na.shm.mapped.bytes").Value(); got != 100 {
		t.Fatalf("na.shm.mapped.bytes = %d, want the 100 reserved", got)
	}
	a.ReleaseLocal(id)
	if borrowCopy(b, a.Addr(), id, dst) {
		t.Fatal("pulled a released region")
	}
	if got := reg.Gauge("na.shm.mapped.bytes").Value(); got != 0 {
		t.Fatalf("na.shm.mapped.bytes after release = %d, want 0", got)
	}
}

// TestArenaCloseWithReservationHeld: Close does not unmap a span a
// reservation still holds — its holder may go on writing into it, as a
// pending batch does — but refuses every new region, closes the memfd at
// once, and unmaps at the last release.
func TestArenaCloseWithReservationHeld(t *testing.T) {
	a, b := dualPair(t)
	reg := obs.NewRegistry()
	a.SetObserver(reg)
	span := a.ReserveLocal(1, 64<<10)
	if span == nil {
		t.Fatal("reserve failed")
	}
	if !a.ExposeLocal(2, []byte("published")) {
		t.Fatal("expose failed")
	}
	a.Close()
	b.Close()
	if a.file.Fd() != ^uintptr(0) {
		t.Error("the arena's memfd is open after Close")
	}
	if a.ReserveLocal(3, 16) != nil || a.ExposeLocal(4, []byte("x")) || a.PublishLocal(1, 16) {
		t.Fatal("a closed arena took a new region")
	}
	for i := range span { // the holder's late append: must not fault
		span[i] = byte(i)
	}
	if span[len(span)-1] != byte(len(span)-1) {
		t.Fatal("span lost a write")
	}
	if got := reg.Gauge("na.shm.mapped.bytes").Value(); got != 64<<10+9 {
		t.Fatalf("na.shm.mapped.bytes with two regions held = %d, want %d", got, 64<<10+9)
	}
	a.ReleaseLocal(1)
	a.arena.mu.Lock()
	mapped := a.arena.seg != nil
	a.arena.mu.Unlock()
	if !mapped {
		t.Fatal("unmapped while a region still held a span")
	}
	a.ReleaseLocal(2)
	a.arena.mu.Lock()
	mapped = a.arena.seg != nil
	a.arena.mu.Unlock()
	if mapped {
		t.Fatal("the last release left the closed arena mapped")
	}
	if got := reg.Gauge("na.shm.mapped.bytes").Value(); got != 0 {
		t.Fatalf("na.shm.mapped.bytes after the last release = %d, want 0", got)
	}
	// An endpoint closed before it ever exposed takes no region afterwards.
	c, err := ListenDual("127.0.0.1:0", "", "c")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if c.ReserveLocal(1, 16) != nil {
		t.Fatal("an endpoint closed before its first region reserved one")
	}
}

// TestSMLocalBulkSlotCollision: two live ids on the same table slot — the
// second expose must decline so pulls for it use the RPC path, and must
// never corrupt the first.
func TestSMLocalBulkSlotCollision(t *testing.T) {
	a, b := dualPairArena(t, defaultArenaBytes, 8)
	colocated(t, a, b)
	if !a.ExposeLocal(3, []byte("first")) {
		t.Fatal("first expose failed")
	}
	if a.ExposeLocal(3+8, []byte("second")) {
		t.Fatal("colliding expose should decline")
	}
	dst := make([]byte, 5)
	if !borrowCopy(b, a.Addr(), 3, dst) || string(dst) != "first" {
		t.Fatalf("first region damaged: dst=%q", dst)
	}
	a.ReleaseLocal(3)
}

// TestSMArenaExhaustion: filling the arena declines further exposes and
// releases make the space reusable (first-fit with coalescing).
func TestSMArenaExhaustion(t *testing.T) {
	a, _ := dualPairArena(t, 1<<20, 64)
	reg := obs.NewRegistry()
	a.SetObserver(reg)
	big := make([]byte, 600<<10)
	if !a.ExposeLocal(1, big) {
		t.Fatal("first expose failed")
	}
	if a.ExposeLocal(2, big) {
		t.Fatal("arena-full expose should decline")
	}
	if got := reg.Counter("na.shm.expose.fallback").Value(); got != 1 {
		t.Fatalf("na.shm.expose.fallback = %d, want 1", got)
	}
	a.ReleaseLocal(1)
	if !a.ExposeLocal(2, big) {
		t.Fatal("expose after release failed")
	}
	a.ReleaseLocal(2)
	// Releases in an order that merges with the left neighbour, the right
	// one and both leave one span the size of the arena again.
	quarter := big[:256<<10]
	for id := uint64(10); id < 14; id++ {
		if !a.ExposeLocal(id, quarter) {
			t.Fatalf("expose %d failed", id)
		}
	}
	for _, id := range []uint64{11, 10, 13, 12} {
		a.ReleaseLocal(id)
	}
	if !a.ExposeLocal(3, make([]byte, 1<<20)) {
		t.Fatal("released spans did not coalesce")
	}
	a.ReleaseLocal(3)
}

// TestSMArenaUnavailable: an endpoint whose arena cannot be made — a slot
// count that is not a power of two, a size no mapping can take — or whose
// sockets cannot be bound is refused, and holds nothing afterwards.
func TestSMArenaUnavailable(t *testing.T) {
	fds, maps := countFDs(t), countArenaMaps(t)
	for name, listen := range map[string]func() (*DualEndpoint, error){
		"slot count 3":     func() (*DualEndpoint, error) { return listenDual("127.0.0.1:0", "c", 1<<20, 3) },
		"4 EiB of data":    func() (*DualEndpoint, error) { return listenDual("127.0.0.1:0", "c", 1<<62, 8) },
		"no tcp port":      func() (*DualEndpoint, error) { return ListenDual("127.0.0.1:x", "", "c") },
		"socket name long": func() (*DualEndpoint, error) { return ListenDual("127.0.0.1:0", "", strings.Repeat("n", 200)) },
	} {
		if ep, err := listen(); err == nil {
			ep.Close()
			t.Errorf("%s: listened", name)
		}
	}
	if got := countFDs(t); got != fds {
		t.Errorf("%d descriptors open after the refused listens, want the %d before", got, fds)
	}
	if got := countArenaMaps(t); got != maps {
		t.Errorf("%d arena mappings after the refused listens, want the %d before", got, maps)
	}
}

func TestSMFaultPlanDropAndDelay(t *testing.T) {
	a, b := dualPair(t)
	plan := NewFaultPlan(1)
	plan.Add(FaultRule{Nth: 1, Count: 1, Drop: true})
	plan.Add(FaultRule{Nth: 3, Delay: 20 * time.Millisecond})
	a.SetFaultPlan(plan)
	for _, msg := range []string{"dropped", "arrives", "delayed"} {
		if err := a.Send(b.Addr(), []byte(msg)); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	start := time.Now()
	for _, want := range []string{"arrives", "delayed"} {
		_, data, err := b.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if string(data) != want {
			t.Fatalf("got %q, want %q", data, want)
		}
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delayed frame arrived after %v", d)
	}
	a.SetFaultPlan(nil)
}

// TestSMQueueDepthGauge: the receive queue reports depth and high-water
// through obs and drains back to zero once consumed.
func TestSMQueueDepthGauge(t *testing.T) {
	a, b := dualPair(t)
	reg := obs.NewRegistry()
	b.SetObserver(reg)
	b.SetObserver(nil) // a nil registry leaves the wiring alone
	g := reg.Gauge("na.queue.depth", "transport", "sm+tcp")
	for i := 0; i < 5; i++ {
		if err := a.Send(b.Addr(), []byte("x")); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for g.Value() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached 5 (now %d)", g.Value())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := b.Recv(); err != nil {
			t.Fatalf("recv: %v", err)
		}
	}
	if g.Value() != 0 {
		t.Fatalf("queue depth did not drain: %d", g.Value())
	}
	if g.Max() < 5 {
		t.Fatalf("high-water mark lost: %d", g.Max())
	}
}

// TestSMObsCounters: arena traffic shows up under na.shm.*.
func TestSMObsCounters(t *testing.T) {
	a, b := dualPair(t)
	colocated(t, a, b)
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	a.SetObserver(regA)
	b.SetObserver(regB)
	if !a.ExposeLocal(7, []byte("bulk")) {
		t.Fatal("expose failed")
	}
	if got := regA.Gauge("na.shm.mapped.bytes").Value(); got != 4 {
		t.Fatalf("mapped.bytes = %d, want 4", got)
	}
	var dst [4]byte
	if !borrowCopy(b, a.Addr(), 7, dst[:]) {
		t.Fatal("pull failed")
	}
	if borrowCopy(b, a.Addr(), 8, dst[:]) {
		t.Fatal("pull of an unpublished id succeeded")
	}
	if local, fell := regB.Counter("na.shm.pull.local").Value(), regB.Counter("na.shm.pull.fallback").Value(); local != 1 || fell != 1 {
		t.Fatalf("pull.local = %d, pull.fallback = %d, want 1 and 1", local, fell)
	}
	a.ReleaseLocal(7)
	if got := regA.Gauge("na.shm.mapped.bytes").Value(); got != 0 {
		t.Fatalf("mapped.bytes after release = %d, want 0", got)
	}
}

// TestPullLocalHostileSlot: the slot words are memory another process
// writes. Whatever they hold — lengths and offsets that wrap uint64, point
// past the data area, another id, a sequence stuck odd — a borrow declines
// (na.shm.pull.fallback counted once), takes its pin back and never hands out
// a view outside the region, let alone the mapping.
func TestPullLocalHostileSlot(t *testing.T) {
	a, b := dualPairArena(t, 1<<20, 8)
	colocated(t, a, b)
	reg := obs.NewRegistry()
	b.SetObserver(reg)
	const id = 5
	payload := bytes.Repeat([]byte{0xAB}, 64)
	if !a.ExposeLocal(id, payload) {
		t.Fatal("expose failed")
	}
	dst := make([]byte, 16)
	if !borrowCopy(b, a.Addr(), id, dst) {
		t.Fatal("honest borrow failed")
	}
	seg := a.arena.seg
	honest := [4]uint64{}
	for f := range honest {
		honest[f] = *slotWord(seg, id, f*8)
	}
	const max = math.MaxUint64
	for _, tc := range []struct {
		name              string
		seq, id, off, len uint64
	}{
		{"off+len wraps to a small sum", honest[0], id, max - 7, 16},
		{"off wraps with the data offset", honest[0], id, max - a.arena.dataOff + 1, 64},
		{"len past the data area", honest[0], id, 0, 1<<20 + 1},
		{"off past the data area", honest[0], id, 1<<20 + 1, 16},
		{"off at the end, len over it", honest[0], id, 1<<20 - 8, 16},
		{"len is all ones", honest[0], id, 8, max},
		{"len shorter than the request", honest[0], id, 0, 15},
		{"another id in the slot", honest[0], id + 8, honest[2], honest[3]},
		{"sequence stuck odd", honest[0] + 1, id, honest[2], honest[3]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for f, v := range [4]uint64{tc.seq, tc.id, tc.off, tc.len} {
				atomic.StoreUint64(slotWord(seg, id, f*8), v)
			}
			before := reg.Counter("na.shm.pull.fallback").Value()
			if view, _, ok := b.BorrowLocal(a.Addr(), id, len(dst)); ok {
				t.Fatalf("borrowed %x, want a decline", view)
			}
			if got := reg.Counter("na.shm.pull.fallback").Value(); got != before+1 {
				t.Fatalf("na.shm.pull.fallback moved %d → %d, want +1", before, got)
			}
			if r := atomic.LoadUint64(slotWord(seg, id, soReaders)); r != 0 {
				t.Fatalf("reader word %d after a declined borrow, want 0", r)
			}
		})
	}
	for f, v := range honest {
		atomic.StoreUint64(slotWord(seg, id, f*8), v)
	}
	if !borrowCopy(b, a.Addr(), id, dst) || !bytes.Equal(dst, payload[:16]) {
		t.Fatalf("restored slot: dst=%x", dst)
	}
	a.ReleaseLocal(id)
}

// TestPeerArenaRejectsHostileHeader: a peer's arena sizes a mapping, so
// a sealed memfd whose header lies, or that is shorter than its header
// claims, is never mapped: the peer is colocated, and every borrow from it
// falls back.
func TestPeerArenaRejectsHostileHeader(t *testing.T) {
	_, b := dualPair(t)
	reg := obs.NewRegistry()
	b.SetObserver(reg)
	good := arenaHeader(8, 4096)
	lyingSlots := arenaHeader(8, 4096)
	lyingSlots[aoSlots] = 16
	// A version-1 arena has no reader words to pin: refused, whole as it is.
	version1 := append(arenaHeader(8, 4096), make([]byte, arenaDataOff(8)+4096-arenaHdrBytes)...)
	binary.LittleEndian.PutUint32(version1[4:], 1)
	for name, file := range map[string][]byte{
		"short":      good[:arenaHdrBytes-1],
		"magic":      append([]byte("nope"), good[4:]...),
		"slots":      lyingSlots,
		"truncated":  good, // claims a table and 4 KiB of data, has neither
		"huge":       arenaHeader(8, 1<<41),
		"zero slots": arenaHeader(0, 4096),
		"2^21 slots": arenaHeader(1<<21, 4096),
		"empty":      nil,
		"version 1":  version1,
	} {
		owner := DualAddr("sm://"+smHostID()+"/hostile-"+name, "127.0.0.1:1")
		offerAs(t, b, owner, syscall.UnixRights(testMemfd(t, file, true)))
		if borrowCopy(b, owner, 1, make([]byte, 8)) {
			t.Fatalf("%s: borrowed, want a decline", name)
		}
	}
	if got := reg.Counter("na.shm.pull.fallback").Value(); got != 9 {
		t.Fatalf("na.shm.pull.fallback = %d, want 9", got)
	}
	b.amu.Lock()
	defer b.amu.Unlock()
	for owner, am := range b.peers {
		if am != nil {
			t.Errorf("the arena %s offered is mapped", owner)
		}
	}
}

// TestSharedArenaCannotShrink: with the arena a file, its owner could
// shrink it under a puller's mapping, and the puller's next read died of
// SIGBUS, which no recover catches. The memfd is sealed against shrinking
// before it is offered: the owner's ftruncate fails with EPERM and the
// next borrow reads the region's bytes.
func TestSharedArenaCannotShrink(t *testing.T) {
	a, b := dualPair(t)
	colocated(t, a, b)
	payload := make([]byte, 64<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	if !a.ExposeLocal(1, payload) {
		t.Fatal("expose failed")
	}
	dst := make([]byte, len(payload))
	if !borrowCopy(b, a.Addr(), 1, dst) {
		t.Fatal("borrow missed")
	}
	if err := syscall.Ftruncate(int(a.file.Fd()), 4<<10); err != syscall.EPERM {
		t.Fatalf("owner's ftruncate to 4 KiB: %v, want EPERM", err)
	}
	clear(dst)
	if !borrowCopy(b, a.Addr(), 1, dst) || !bytes.Equal(dst, payload) {
		t.Fatal("the borrow after the shrink attempt missed or read other bytes")
	}
}

// TestArenaOfferRefused: a peer whose opening message passes an unsealed
// memfd, or a regular file, is refused its mapping — every borrow from it
// falls back, counted — and an offer on a newer connection replaces an
// older one. A message with no descriptor, or two, loses its connection,
// and the endpoint serves on.
func TestArenaOfferRefused(t *testing.T) {
	a, b := dualPair(t)
	colocated(t, a, b)
	reg := obs.NewRegistry()
	b.SetObserver(reg)
	if !a.ExposeLocal(1, []byte("region")) {
		t.Fatal("expose failed")
	}
	regular, err := os.CreateTemp(t.TempDir(), "arena")
	if err != nil {
		t.Fatal(err)
	}
	defer regular.Close()
	if _, err := regular.Write(a.arena.seg[:arenaDataOff(defaultArenaSlots)+64]); err != nil {
		t.Fatal(err)
	}
	unsealed := testMemfd(t, a.arena.seg[:arenaDataOff(defaultArenaSlots)+64], false)
	dst := make([]byte, 6)
	for name, fd := range map[string]int{"unsealed memfd": unsealed, "regular file": int(regular.Fd())} {
		if mapOffer(fd) != nil {
			t.Errorf("%s: mapped", name)
		}
		// Under the owner's address: it replaces the owner's sealed arena.
		offerAs(t, b, a.Addr(), syscall.UnixRights(fd))
		if borrowCopy(b, a.Addr(), 1, dst) {
			t.Fatalf("%s: borrowed, want a decline", name)
		}
	}
	if got := reg.Counter("na.shm.pull.fallback").Value(); got != 2 {
		t.Fatalf("na.shm.pull.fallback = %d, want 2", got)
	}
	// The owner's next connection brings its sealed arena back.
	a.mu.Lock()
	for _, c := range a.conns {
		c.c.Close()
	}
	a.conns = map[string]*tcpConn{}
	a.mu.Unlock()
	colocated(t, a, b)
	if !borrowCopy(b, a.Addr(), 1, dst) || string(dst) != "region" {
		t.Fatalf("borrow after the owner's new offer: %q", dst)
	}

	for name, oob := range map[string][]byte{
		"no descriptor":   nil,
		"two descriptors": syscall.UnixRights(unsealed, unsealed),
	} {
		c := dialUnix(t, b)
		if _, _, err := c.WriteMsgUnix(rawFrame(4, 0, []byte("peer"), nil), oob, nil); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: read from the refused connection: %v, want it closed", name, err)
		}
	}
	colocated(t, a, b)
}

// testMemfd makes a memfd holding contents, sealed against shrinking or
// not, closed with the test.
func testMemfd(t *testing.T, contents []byte, sealed bool) int {
	t.Helper()
	fd, err := memfdCreate()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if _, err := syscall.Write(fd, contents); err != nil && len(contents) > 0 {
		t.Fatal(err)
	}
	if sealed {
		if _, err := fcntl(fd, fAddSeals, sealShrink); err != nil {
			t.Fatal(err)
		}
	}
	return fd
}

// dialUnix dials b's unix socket as a hand-made peer would; the connection
// closes with the test.
func dialUnix(t *testing.T, b *DualEndpoint) *net.UnixConn {
	t.Helper()
	smPart, _ := SplitAddr(b.Addr())
	_, name, _ := smHostSocket(smPart)
	c, err := net.Dial("unix", "@"+name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.(*net.UnixConn)
}

// offerAs opens a connection to b as the peer at from whose opening
// message carries the control bytes oob, then sends one frame and returns
// once b has it: the offer is filed, or refused, by then.
func offerAs(t *testing.T, b *DualEndpoint, from string, oob []byte) {
	t.Helper()
	c := dialUnix(t, b)
	if _, _, err := c.WriteMsgUnix(rawFrame(uint32(len(from)), 0, []byte(from), nil), oob, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(rawFrame(uint32(len(from)), 4, []byte(from), []byte("sync"))); err != nil {
		t.Fatal(err)
	}
	if got, data, err := b.Recv(); err != nil || got != from || string(data) != "sync" {
		t.Fatalf("recv after the offer: %q from %q, %v", data, got, err)
	}
}

// arenaHeader builds the 64 header bytes of an arena with the given
// geometry (and the data offset that goes with it).
func arenaHeader(nslots, dataCap uint64) []byte {
	hdr := make([]byte, arenaHdrBytes)
	binary.LittleEndian.PutUint32(hdr[0:], smArenaMagic)
	binary.LittleEndian.PutUint32(hdr[4:], smArenaVersion)
	binary.LittleEndian.PutUint64(hdr[aoSlots:], nslots)
	binary.LittleEndian.PutUint64(hdr[aoDataOff:], arenaDataOff(nslots))
	binary.LittleEndian.PutUint64(hdr[aoDataCap:], dataCap)
	return hdr
}

// TestArenaChurnStress: an exposer cycles regions through a four-slot, and
// small, arena — ids that collide on slots, spans that are recycled the
// moment they are released — while a borrower on a second endpoint reads
// whatever it can. Half the regions are snapshots (ExposeLocal), half are
// reserved, filled in place — while the span may still hold an older
// region's bytes and the slot an older id — and published with a tail left
// unpublished. Every borrow that hits must hold exactly its id's bytes (the
// seqlock's job), and go on holding them while the exposer churns (the
// pin's); any other outcome is a fallback, and is counted as one. Both
// endpoints close with nothing left published or quarantined.
func TestArenaChurnStress(t *testing.T) {
	a, b := dualPairArena(t, 64<<10, 4)
	colocated(t, a, b)
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	a.SetObserver(regA)
	b.SetObserver(regB)

	// 1, 5, 9 share slot 1; 2, 6 share slot 2; sizes differ per id, so
	// first-fit hands a released span to a region of another size.
	ids := []uint64{1, 2, 5, 3, 6, 9}
	size := func(id uint64) int { return 3000 + int(id)*1700 }
	fill := func(id uint64, buf []byte) {
		for i := range buf {
			buf[i] = byte(id*37 + uint64(i))
		}
	}

	stop := make(chan struct{})
	stopOnce := sync.OnceFunc(func() { close(stop) })
	defer stopOnce()
	exposed := make(chan [2]int64, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		var live []uint64
		var n [2]int64 // snapshots, in-place regions
		buf := make([]byte, size(9))
		for {
			select {
			case <-stop:
				for _, id := range live {
					a.ReleaseLocal(id)
				}
				exposed <- n
				return
			default:
			}
			id := ids[rng.Intn(len(ids))]
			if rng.Intn(2) == 0 {
				fill(id, buf[:size(id)])
				if a.ExposeLocal(id, buf[:size(id)]) {
					live = append(live, id)
					n[0]++
				}
			} else if span := a.ReserveLocal(id, size(id)+512); span != nil {
				fill(id, span[:size(id)])
				if !a.PublishLocal(id, size(id)) {
					t.Errorf("publish of live reservation %d failed", id)
				}
				live = append(live, id)
				n[1]++
			}
			// Two regions stay live, so colliding ids (and an id that is
			// live already) meet a busy slot.
			if len(live) > 2 {
				a.ReleaseLocal(live[0])
				live = live[1:]
			}
			runtime.Gosched()
		}
	}()

	var done, fell int64
	want := make([]byte, size(9))
	start := time.Now()
	for i := 0; time.Since(start) < 300*time.Millisecond || done == 0; i++ {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("no borrow out of %d found a published region", i)
		}
		id := ids[i%len(ids)]
		view, release, ok := b.BorrowLocal(a.Addr(), id, size(id))
		if !ok {
			fell++
			continue
		}
		done++
		fill(id, want[:size(id)])
		if !bytes.Equal(view, want[:size(id)]) {
			t.Fatalf("borrow %d of region %d hit with another region's bytes", i, id)
		}
		runtime.Gosched() // the exposer churns on; the pinned bytes must not
		if !bytes.Equal(view, want[:size(id)]) {
			t.Fatalf("borrow %d of region %d: the pinned bytes changed", i, id)
		}
		release()
	}
	stopOnce()
	n := <-exposed

	if local, fallback := regB.Counter("na.shm.pull.local").Value(), regB.Counter("na.shm.pull.fallback").Value(); local != done || fallback != fell {
		t.Fatalf("pull.local = %d (saw %d), pull.fallback = %d (saw %d)", local, done, fallback, fell)
	}
	if regA.Counter("na.shm.expose.fallback").Value() == 0 {
		t.Error("no expose met a busy slot: the ids did not collide")
	}
	if n[0] == 0 || n[1] == 0 {
		t.Errorf("%d snapshots and %d in-place regions published, want both", n[0], n[1])
	}
	t.Logf("%d snapshots and %d in-place regions, %d borrows hit, %d fell back", n[0], n[1], done, fell)
	a.Close()
	b.Close()
	for name, reg := range map[string]*obs.Registry{"exposer": regA, "puller": regB} {
		for _, g := range []string{"na.shm.mapped.bytes", "na.shm.quarantined.bytes"} {
			if got := reg.Gauge(g).Value(); got != 0 {
				t.Errorf("%s closed with %s = %d", name, g, got)
			}
		}
	}
}

// TestCloseUnderBorrow: the borrower's Close drops its mappings of peer
// arenas while views into them are out — a stage handler still reading,
// or a pull still copying, when the server finalizes. Each round holds one
// view across the Close and races the Close against goroutines that borrow
// (and read) and borrow-and-copy an 8 MiB region in a loop. Nothing may
// fault, every byte read must be the region's, and the mapping is unmapped
// at the last done, not before.
func TestCloseUnderBorrow(t *testing.T) {
	const size = 8 << 20
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*13 + i>>12)
	}
	for round := 0; round < 20; round++ {
		a, b := dualPairArena(t, size, 8)
		colocated(t, a, b)
		if !a.ExposeLocal(1, payload) {
			t.Fatal("expose failed")
		}
		held, heldDone, ok := b.BorrowLocal(a.Addr(), 1, size)
		if !ok {
			t.Fatal("borrow failed")
		}
		b.amu.Lock()
		am := b.peers[a.Addr()]
		b.amu.Unlock()

		var wg sync.WaitGroup
		var hits atomic.Int64
		started := make(chan struct{}, 2)
		borrowLoop := func(read func(view []byte) bool) {
			defer wg.Done()
			for i := 0; ; i++ {
				view, done, ok := b.BorrowLocal(a.Addr(), 1, size)
				if i == 0 {
					started <- struct{}{}
				}
				if !ok {
					return // closed: every later borrow misses
				}
				good := read(view)
				done()
				if !good {
					t.Errorf("round %d: a borrowed region read other bytes", round)
					return
				}
				hits.Add(1)
			}
		}
		wg.Add(2)
		go borrowLoop(func(view []byte) bool { return bytes.Equal(view, payload) })
		dst := make([]byte, size)
		go borrowLoop(func(view []byte) bool { copy(dst, view); return bytes.Equal(dst, payload) })
		<-started
		<-started
		b.Close()
		wg.Wait()
		if !bytes.Equal(held, payload) {
			t.Fatalf("round %d: the view held across Close changed", round)
		}
		if got := am.refs.Load(); got != 1 {
			t.Fatalf("round %d: %d references to the mapping with one view out, want 1", round, got)
		}
		heldDone()
		if got := am.refs.Load(); got != 0 {
			t.Fatalf("round %d: %d references to the mapping after the last done, want 0 (unmapped)", round, got)
		}
		if _, _, ok := b.BorrowLocal(a.Addr(), 1, size); ok {
			t.Fatalf("round %d: borrowed through a closed endpoint", round)
		}
		a.Close()
		if round == 0 {
			t.Logf("round 0: %d borrows hit before the close", hits.Load())
		}
	}
}

// TestBorrowPinsSpanAgainstRelease: the owner releases a region while a
// borrower holds a view of it, then goes on reserving, rewriting and
// releasing spans. The pinned span is quarantined, not freed — the view's
// bytes never change and its slot takes no new region — and it is reused
// only after done.
func TestBorrowPinsSpanAgainstRelease(t *testing.T) {
	const arena, size = 1 << 20, 64 << 10
	a, b := dualPairArena(t, arena, 8)
	colocated(t, a, b)
	regA := obs.NewRegistry()
	a.SetObserver(regA)
	const id = 3
	span := a.ReserveLocal(id, size)
	for i := range span {
		span[i] = byte(i * 7)
	}
	if !a.PublishLocal(id, size) {
		t.Fatal("publish failed")
	}
	view, done, ok := b.BorrowLocal(a.Addr(), id, size)
	if !ok {
		t.Fatal("borrow failed")
	}
	want := bytes.Clone(view)
	a.ReleaseLocal(id)
	if got := regA.Gauge("na.shm.quarantined.bytes").Value(); got != size {
		t.Fatalf("na.shm.quarantined.bytes = %d after releasing a pinned span, want %d", got, size)
	}

	stop := make(chan struct{})
	changed := make(chan bool)
	go func() { // the borrower reads its view all along
		for {
			select {
			case <-stop:
				changed <- false
				return
			default:
			}
			if !bytes.Equal(view, want) {
				changed <- true
				return
			}
			runtime.Gosched()
		}
	}()
	for n := uint64(1); n <= 200; n++ {
		next := id + 8*n // the pinned slot: declined while the pin holds
		if a.ReserveLocal(next, 16) != nil {
			t.Fatalf("id %d took the slot of a pinned span", next)
		}
		other := id + 1 + n%7 // every other slot, sized to cover the free space
		s := a.ReserveLocal(other, arena-size)
		if s == nil {
			t.Fatalf("reserve %d of the unpinned space failed", other)
		}
		for i := range s {
			s[i] = 0xFF
		}
		a.PublishLocal(other, len(s))
		if a.ReserveLocal(next+1, 1) != nil {
			t.Fatal("the arena handed out more than its free space: the pinned span was reused")
		}
		a.ReleaseLocal(other)
	}
	close(stop)
	if <-changed {
		t.Fatal("the pinned bytes changed while the owner churned")
	}
	done()
	if s := a.ReserveLocal(id+8, arena); s == nil {
		t.Fatal("the span was not reclaimed after done: the whole arena is not free")
	}
	a.ReleaseLocal(id + 8)
	if got := regA.Gauge("na.shm.quarantined.bytes").Value(); got != 0 {
		t.Fatalf("na.shm.quarantined.bytes = %d after done, want 0", got)
	}
}

// TestQuarantineAfterStuckPin: a borrower that died mid-borrow — a server
// killed while its stage handler read a client's arena — leaves its pin in
// the reader word for good. Only its span stays quarantined, shown by the
// gauge: reservations elsewhere go on, those on its slot fall back, and the
// owner's Close forgets the quarantine and unmaps.
func TestQuarantineAfterStuckPin(t *testing.T) {
	a, b := dualPairArena(t, 1<<20, 8)
	colocated(t, a, b)
	regA := obs.NewRegistry()
	a.SetObserver(regA)
	const id, size = 5, 64 << 10
	if !a.ExposeLocal(id, make([]byte, size)) {
		t.Fatal("expose failed")
	}
	atomic.StoreUint64(slotWord(a.arena.seg, id, soReaders), 1) // the dead borrower's pin
	a.ReleaseLocal(id)
	if got := regA.Gauge("na.shm.quarantined.bytes").Value(); got != size {
		t.Fatalf("na.shm.quarantined.bytes = %d, want the stuck span's %d", got, size)
	}
	for n := uint64(1); n <= 64; n++ {
		span := a.ReserveLocal(n, 4096)
		if pinned := n%8 == id; pinned != (span == nil) {
			t.Fatalf("reserve of id %d on slot %d: span %v, want a fallback exactly on the stuck slot", n, n%8, span != nil)
		}
		if span == nil {
			continue
		}
		span[0] = byte(n)
		a.PublishLocal(n, 1)
		if got := make([]byte, 1); !borrowCopy(b, a.Addr(), n, got) || got[0] != byte(n) {
			t.Fatalf("borrow of id %d beside the stuck slot: %v", n, got)
		}
		a.ReleaseLocal(n)
	}
	if a.ReserveLocal(1, 1<<20) != nil {
		t.Fatal("the stuck span was handed out again")
	}
	if got := regA.Counter("na.shm.expose.fallback").Value(); got != 9 {
		t.Fatalf("na.shm.expose.fallback = %d, want 9 (8 on the stuck slot, 1 arena full)", got)
	}
	a.Close()
	a.arena.mu.Lock()
	mapped := a.arena.seg != nil
	a.arena.mu.Unlock()
	if mapped {
		t.Fatal("Close left the arena mapped under a stuck pin")
	}
	for _, g := range []string{"na.shm.mapped.bytes", "na.shm.quarantined.bytes"} {
		if got := regA.Gauge(g).Value(); got != 0 {
			t.Errorf("%s = %d after Close, want 0", g, got)
		}
	}
}
