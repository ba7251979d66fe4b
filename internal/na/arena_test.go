package na

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/obs"
)

// dualPair builds two dual endpoints in one temp dir and tears them down
// with the test.
func dualPair(t *testing.T) (*DualEndpoint, *DualEndpoint, string) {
	return dualPairArena(t, defaultArenaBytes, defaultArenaSlots)
}

// dualPairArena is dualPair with the arena geometry chosen by the test.
func dualPairArena(t *testing.T, arenaBytes, arenaSlots int) (*DualEndpoint, *DualEndpoint, string) {
	t.Helper()
	dir := t.TempDir()
	var eps [2]*DualEndpoint
	for i, name := range []string{"a", "b"} {
		ep, err := listenDual("127.0.0.1:0", dir, name, arenaBytes, arenaSlots)
		if err != nil {
			t.Fatalf("ListenDual %s: %v", name, err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
	}
	return eps[0], eps[1], dir
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
	a, b, _ := dualPair(t)
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
	a, _, _ := dualPair(t)
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
	a, b, dir := dualPair(t)
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
	c, err := ListenDual("127.0.0.1:0", dir, "c")
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

// TestSMSegmentCleanup: a clean Close leaves no segment files — socket and
// arena are unlinked.
func TestSMSegmentCleanup(t *testing.T) {
	a, b, dir := dualPair(t)
	if err := a.Send(b.Addr(), []byte("x")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, _, err := b.Recv(); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !a.ExposeLocal(1, []byte("bulk bytes")) {
		t.Fatal("ExposeLocal failed")
	}
	var dst [10]byte
	if !borrowCopy(b, a.Addr(), 1, dst[:]) {
		t.Fatal("borrow missed")
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 3 { // a.sock, a.blk, b.sock
		t.Errorf("%d segment files while open, want 3", len(ents))
	}
	a.Close()
	b.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, e := range ents {
		t.Errorf("orphaned segment file after Close: %s", e.Name())
	}
}

func TestSMLocalBulk(t *testing.T) {
	a, b, _ := dualPair(t)
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
	// Owners this endpoint cannot map decline: no sm component, another
	// host, a malformed one, itself, a base with no arena.
	_, tcpPart := SplitAddr(a.Addr())
	for _, owner := range []string{
		tcpPart,
		DualAddr("sm://other-host"+a.base, tcpPart),
		"sm+tcp://nobase;127.0.0.1:1",
		b.Addr(),
		DualAddr("sm://"+smHostID()+"/no/such/base", tcpPart),
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
	a, b, _ := dualPairArena(t, 1<<20, 8)
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
// pending batch does — but refuses every new region, unlinks the files at
// once, and unmaps at the last release.
func TestArenaCloseWithReservationHeld(t *testing.T) {
	a, b, dir := dualPair(t)
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
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("segment file left after Close: %s", e.Name())
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
	// An endpoint closed before it ever exposed creates no arena afterwards.
	c, err := ListenDual("127.0.0.1:0", dir, "c")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if c.ReserveLocal(1, 16) != nil {
		t.Fatal("an endpoint closed before its first region reserved one")
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("%d segment files after the late reserve, want 0", len(ents))
	}
}

// TestSMLocalBulkSlotCollision: two live ids on the same table slot — the
// second expose must decline so pulls for it use the RPC path, and must
// never corrupt the first.
func TestSMLocalBulkSlotCollision(t *testing.T) {
	a, b, _ := dualPairArena(t, defaultArenaBytes, 8)
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
	a, _, _ := dualPairArena(t, 1<<20, 64)
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

// TestSMArenaUnavailable: an endpoint whose arena file cannot be created
// declines every expose (pulls use the RPC path) and keeps declining.
func TestSMArenaUnavailable(t *testing.T) {
	a, _, _ := dualPair(t)
	if err := os.WriteFile(a.base+".blk", nil, 0o600); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(a.base + ".blk")
	for i := 0; i < 2; i++ {
		if a.ExposeLocal(1, []byte("x")) {
			t.Fatal("expose succeeded over a foreign arena file")
		}
	}
	if _, err := listenDual("127.0.0.1:0", t.TempDir(), "c", 1<<20, 3); err == nil {
		t.Fatal("slot count that is not a power of two accepted")
	}
}

func TestSMFaultPlanDropAndDelay(t *testing.T) {
	a, b, _ := dualPair(t)
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
	a, b, _ := dualPair(t)
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
	a, b, _ := dualPair(t)
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
	a, b, _ := dualPairArena(t, 1<<20, 8)
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

// TestPeerArenaRejectsHostileHeader: a peer's arena file sizes a mapping,
// so a header that lies or a file shorter than its header claims is never
// mapped.
func TestPeerArenaRejectsHostileHeader(t *testing.T) {
	_, b, dir := dualPair(t)
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
		base := filepath.Join(dir, "hostile")
		if err := os.WriteFile(base+".blk", file, 0o600); err != nil {
			t.Fatal(err)
		}
		owner := DualAddr("sm://"+smHostID()+base, "127.0.0.1:1")
		if borrowCopy(b, owner, 1, make([]byte, 8)) {
			t.Fatalf("%s: borrowed, want a decline", name)
		}
		os.Remove(base + ".blk")
	}
	if got := reg.Counter("na.shm.pull.fallback").Value(); got != 9 {
		t.Fatalf("na.shm.pull.fallback = %d, want 9", got)
	}
	b.amu.Lock()
	n := len(b.arenas)
	b.amu.Unlock()
	if n != 0 {
		t.Fatalf("%d hostile arenas stayed mapped", n)
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
	a, b, _ := dualPairArena(t, 64<<10, 4)
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

func TestSMSocketPathTooLong(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a-very-long-intermediate-directory-name-to-overflow")
	name := fmt.Sprintf("%0100d", 7)
	if _, err := ListenDual("127.0.0.1:0", dir, name); err == nil {
		t.Fatal("oversized socket path accepted")
	}
}

// TestSMStaleSegmentGC: a SIGKILL'd endpoint owner cannot unlink its own
// files, so the next listen in the same directory garbage-collects
// auto-named segments of dead pids — and leaves live owners' files alone.
func TestSMStaleSegmentGC(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command("true")
	if err := cmd.Run(); err != nil {
		t.Skipf("no /bin/true: %v", err)
	}
	deadPid := cmd.Process.Pid
	var stale []string
	for _, ext := range []string{".sock", ".blk"} {
		p := filepath.Join(dir, fmt.Sprintf("ep-%d-1%s", deadPid, ext))
		if err := os.WriteFile(p, nil, 0o600); err != nil {
			t.Fatal(err)
		}
		stale = append(stale, p)
	}
	keep := []string{
		filepath.Join(dir, "custom-name.sock"),
		filepath.Join(dir, fmt.Sprintf("ep-%d-99.blk", os.Getpid())),
	}
	for _, p := range keep {
		if err := os.WriteFile(p, nil, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	ep, err := ListenDual("127.0.0.1:0", dir, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale segment %s survived GC (err=%v)", p, err)
		}
	}
	for _, p := range keep {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("a live owner's or custom-named segment was GC'd: %v", err)
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
		a, b, _ := dualPairArena(t, size, 8)
		if !a.ExposeLocal(1, payload) {
			t.Fatal("expose failed")
		}
		held, heldDone, ok := b.BorrowLocal(a.Addr(), 1, size)
		if !ok {
			t.Fatal("borrow failed")
		}
		b.amu.Lock()
		var am *smArenaMap
		for _, m := range b.arenas {
			am = m
		}
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
	a, b, _ := dualPairArena(t, arena, 8)
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
// owner's Close forgets the quarantine, unmaps and unlinks.
func TestQuarantineAfterStuckPin(t *testing.T) {
	a, b, _ := dualPairArena(t, 1<<20, 8)
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
	if _, err := os.Stat(a.base + ".blk"); !os.IsNotExist(err) {
		t.Fatalf("arena file left after Close: %v", err)
	}
	for _, g := range []string{"na.shm.mapped.bytes", "na.shm.quarantined.bytes"} {
		if got := regA.Gauge(g).Value(); got != 0 {
			t.Errorf("%s = %d after Close, want 0", g, got)
		}
	}
}
