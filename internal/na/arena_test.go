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
	if done, err := b.PullLocal(a.Addr(), 1, dst[:]); !done || err != nil {
		t.Fatalf("PullLocal: done=%v err=%v", done, err)
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
	if done, err := b.PullLocal(a.Addr(), 42, dst); !done || err != nil {
		t.Fatalf("full pull: done=%v err=%v", done, err)
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("full pull bytes differ")
	}
	// A prefix pull.
	sub := make([]byte, 1000)
	if done, err := b.PullLocal(a.Addr(), 42, sub); !done || err != nil {
		t.Fatalf("prefix pull: done=%v err=%v", done, err)
	}
	if !bytes.Equal(sub, payload[:1000]) {
		t.Fatal("prefix pull bytes differ")
	}
	// A request longer than the region must decline (RPC path is
	// authoritative).
	if done, _ := b.PullLocal(a.Addr(), 42, make([]byte, len(payload)+1)); done {
		t.Fatal("out-of-bounds pull should fall back")
	}
	// Unknown id declines.
	if done, _ := b.PullLocal(a.Addr(), 999, dst); done {
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
		if done, _ := b.PullLocal(owner, 42, sub); done {
			t.Fatalf("pull from %s should fall back", owner)
		}
	}
	// After release the slot is withdrawn.
	a.ReleaseLocal(42)
	if done, _ := b.PullLocal(a.Addr(), 42, dst); done {
		t.Fatal("released region should fall back")
	}
	// Slot reuse after release: a new id landing on the same slot works.
	if !a.ExposeLocal(42+defaultArenaSlots, payload[:100]) {
		t.Fatal("re-expose on same slot failed")
	}
	small := make([]byte, 100)
	if done, err := b.PullLocal(a.Addr(), 42+defaultArenaSlots, small); !done || err != nil {
		t.Fatalf("pull after slot reuse: done=%v err=%v", done, err)
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
	if done, err := b.PullLocal(a.Addr(), id, dst); done || err != nil {
		t.Fatalf("pull of a reserved, unpublished region: done=%v err=%v, want a miss", done, err)
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
	if done, err := b.PullLocal(a.Addr(), id, dst); !done || err != nil || !bytes.Equal(dst, span[:60]) {
		t.Fatalf("pull after publish: done=%v err=%v", done, err)
	}
	if done, _ := b.PullLocal(a.Addr(), id, make([]byte, 61)); done {
		t.Fatal("pulled past the published prefix")
	}
	if got := reg.Gauge("na.shm.mapped.bytes").Value(); got != 100 {
		t.Fatalf("na.shm.mapped.bytes = %d, want the 100 reserved", got)
	}
	a.ReleaseLocal(id)
	if done, _ := b.PullLocal(a.Addr(), id, dst); done {
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
	if done, err := b.PullLocal(a.Addr(), 3, dst); !done || err != nil || string(dst) != "first" {
		t.Fatalf("first region damaged: done=%v err=%v dst=%q", done, err, dst)
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
	if done, _ := b.PullLocal(a.Addr(), 7, dst[:]); !done {
		t.Fatal("pull failed")
	}
	if done, _ := b.PullLocal(a.Addr(), 8, dst[:]); done {
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
// past the data area, another id, a sequence stuck odd — a pull declines
// (done=false, na.shm.pull.fallback counted) and never reads outside the
// region, let alone the mapping.
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
	if done, _ := b.PullLocal(a.Addr(), id, dst); !done {
		t.Fatal("honest pull failed")
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
			clear(dst)
			done, err := b.PullLocal(a.Addr(), id, dst)
			if done || err != nil {
				t.Fatalf("done=%v err=%v dst=%x, want a decline", done, err, dst)
			}
			if got := reg.Counter("na.shm.pull.fallback").Value(); got != before+1 {
				t.Fatalf("na.shm.pull.fallback moved %d → %d, want +1", before, got)
			}
		})
	}
	for f, v := range honest {
		atomic.StoreUint64(slotWord(seg, id, f*8), v)
	}
	if done, _ := b.PullLocal(a.Addr(), id, dst); !done || !bytes.Equal(dst, payload[:16]) {
		t.Fatalf("restored slot: done=%v dst=%x", done, dst)
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
	for name, file := range map[string][]byte{
		"short":      good[:arenaHdrBytes-1],
		"magic":      append([]byte("nope"), good[4:]...),
		"slots":      lyingSlots,
		"truncated":  good, // claims a table and 4 KiB of data, has neither
		"huge":       arenaHeader(8, 1<<41),
		"zero slots": arenaHeader(0, 4096),
		"2^21 slots": arenaHeader(1<<21, 4096),
		"empty":      nil,
	} {
		base := filepath.Join(dir, "hostile")
		if err := os.WriteFile(base+".blk", file, 0o600); err != nil {
			t.Fatal(err)
		}
		owner := DualAddr("sm://"+smHostID()+base, "127.0.0.1:1")
		if done, err := b.PullLocal(owner, 1, make([]byte, 8)); done || err != nil {
			t.Fatalf("%s: done=%v err=%v, want a decline", name, done, err)
		}
		os.Remove(base + ".blk")
	}
	if got := reg.Counter("na.shm.pull.fallback").Value(); got != 8 {
		t.Fatalf("na.shm.pull.fallback = %d, want 8", got)
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
	binary.LittleEndian.PutUint64(hdr[aoDataOff:], arenaHdrBytes+nslots*arenaSlotBytes)
	binary.LittleEndian.PutUint64(hdr[aoDataCap:], dataCap)
	return hdr
}

// TestArenaChurnStress: an exposer cycles regions through a four-slot, and
// small, arena — ids that collide on slots, spans that are recycled the
// moment they are released — while a puller on a second endpoint copies
// whatever it can. Half the regions are snapshots (ExposeLocal), half are
// reserved, filled in place — while the span may still hold an older
// region's bytes and the slot an older id — and published with a tail left
// unpublished. Every pull that reports done must hold exactly its id's
// bytes (the seqlock's whole job); any other outcome is a fallback, and is
// counted as one. Both endpoints close with nothing left published.
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
	dst := make([]byte, size(9))
	start := time.Now()
	for i := 0; time.Since(start) < 300*time.Millisecond || done == 0; i++ {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("no pull out of %d found a published region", i)
		}
		id := ids[i%len(ids)]
		got := dst[:size(id)]
		ok, err := b.PullLocal(a.Addr(), id, got)
		if err != nil {
			t.Fatalf("pull %d: %v", id, err)
		}
		if !ok {
			fell++
			continue
		}
		done++
		fill(id, want[:size(id)])
		if !bytes.Equal(got, want[:size(id)]) {
			t.Fatalf("pull %d of region %d reported done with another region's bytes", i, id)
		}
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
	t.Logf("%d snapshots and %d in-place regions, %d pulls done, %d fell back", n[0], n[1], done, fell)
	a.Close()
	b.Close()
	for name, reg := range map[string]*obs.Registry{"exposer": regA, "puller": regB} {
		if got := reg.Gauge("na.shm.mapped.bytes").Value(); got != 0 {
			t.Errorf("%s closed with na.shm.mapped.bytes = %d", name, got)
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
