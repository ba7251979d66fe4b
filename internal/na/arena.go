package na

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"colza/internal/obs"
)

// This file implements the shared-memory bulk arena, the LocalBulk half of
// a dual endpoint (the analog of what Mercury's na+sm plugin does for bulk
// data): exposed bulk regions are published in a per-endpoint mmap'd
// segment (a tmpfs-backed file), and a same-host puller maps the exposer's
// arena and reads the bytes where they lie, skipping the chunked bulk-pull
// RPC protocol entirely (DESIGN.md §12). RPC frames do not come through
// here — they ride the endpoint's stream sockets (tcp.go).
//
// Lifecycle invariants:
//
//   - the arena file is created on the first ExposeLocal or ReserveLocal
//     and unlinked on Close, next to the endpoint's unix socket; only a
//     process killed without Close can orphan them, and the next listener
//     in the same directory removes what a dead pid left (gcStaleSegments);
//   - the mapping outlives Close until the last region holding a span of
//     it is released (smArena.close);
//   - a span a borrower has pinned is not recycled until the pin is gone
//     (the quarantine), and a puller's mapping of a peer's arena is not
//     unmapped until its last borrow is done (smArenaMap.unref);
//   - every BorrowLocal outcome other than "slot pinned, words stable and
//     in bounds" sends the caller to the RPC pull path, which stays
//     authoritative.

// Arena segment layout, version 2 (the LocalBulk export table + data area;
// all fields little-endian):
//
//	0   magic uint32 / 4 version uint32
//	8   slot count uint64
//	16  data offset uint64: header and table rounded up to a page
//	24  data capacity uint64
//	64  slots: nslots × 40B {seq u64, id u64, off u64, len u64, readers u64}
//	... data area, from the data offset
//
// Publication uses a per-slot seqlock: the exposer writes the bytes into a
// span no published slot points at, then bumps seq to odd, writes
// id/off/len, bumps seq to even. A borrower pins the slot first — an atomic
// add on its reader word — then reads seq, id, off, len and seq again, and
// keeps the span only if the words were stable, name its id and lie in
// bounds; on any miss it takes the pin back and falls back to the RPC pull
// path. A release withdraws the slot under the seqlock and then loads the
// reader word: a pinned span goes to the quarantine instead of the free
// list. Go's atomics are sequentially consistent, so of the borrower's add
// and the releaser's load one comes first: either the releaser sees the pin,
// or the borrower sees the withdrawal. The data area starts on a page so a
// puller maps the table read-write (for the pin) and the data read-only.
const (
	smArenaMagic   = 0x435a5342 // "CZSB"
	smArenaVersion = 2
	arenaHdrBytes  = 64
	arenaSlotBytes = 40

	aoSlots   = 8
	aoDataOff = 16
	aoDataCap = 24

	soSeq     = 0
	soID      = 8
	soOff     = 16
	soLen     = 24
	soReaders = 32
)

// The arena's data capacity (the file is sparse: only touched pages consume
// memory) and the size of its export table, a power of two.
const (
	defaultArenaBytes = 256 << 20
	defaultArenaSlots = 4096
)

var errSMCorrupt = errors.New("na: sm arena corrupt")

// DefaultSMDir is where dual endpoints place their segments when the caller
// passes an empty dir: a world-unreadable per-user directory under the
// system temp dir (tmpfs on typical HPC nodes).
func DefaultSMDir() string {
	return filepath.Join(os.TempDir(), "colza-sm")
}

var smNameSeq atomic.Uint64

// smSegmentBase prepares the segment directory (empty dir selects
// DefaultSMDir) and returns the absolute base path an endpoint's socket
// (<base>.sock) and arena (<base>.blk) live under; an empty name generates
// a unique one.
func smSegmentBase(dir, name string) (string, error) {
	if dir == "" {
		dir = DefaultSMDir()
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return "", fmt.Errorf("na: sm dir: %w", err)
	}
	gcStaleSegments(dir)
	if name == "" {
		name = fmt.Sprintf("ep-%d-%d", os.Getpid(), smNameSeq.Add(1))
	}
	base, err := filepath.Abs(filepath.Join(dir, name))
	if err != nil {
		return "", fmt.Errorf("na: sm base: %w", err)
	}
	// The kernel caps unix socket paths (108 bytes on Linux); failing
	// early beats an EINVAL with no context at dial time.
	if sock := base + ".sock"; len(sock) > 100 {
		return "", fmt.Errorf("na: sm socket path too long (%d bytes): %s", len(sock), sock)
	}
	return base, nil
}

// gcStaleSegments removes auto-named segment files (ep-<pid>-*) whose
// owning process is gone: a SIGKILL'd server cannot unlink its own socket
// or arena, so a shared segment directory self-heals on the next listen.
// Best-effort — custom-named segments and foreign files are left alone.
func gcStaleSegments(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		var pid, seq int
		if n, _ := fmt.Sscanf(ent.Name(), "ep-%d-%d", &pid, &seq); n != 2 || pid <= 0 || pid == os.Getpid() {
			continue
		}
		// Signal 0 probes liveness; ESRCH means the pid is free. EPERM
		// means it exists under another uid — leave its files alone.
		if err := syscall.Kill(pid, 0); err == syscall.ESRCH {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

// shmBulk implements LocalBulk for the endpoint whose segments live under
// base: the arena it publishes its own regions in, and mappings of the
// colocated peers' arenas it borrows from.
type shmBulk struct {
	host string
	base string
	// Arena geometry: the defaults, but for in-package tests.
	arenaBytes, arenaSlots uint64

	met atomic.Pointer[arenaMetrics]

	arenaOnce sync.Once
	arena     *smArena // nil if the segment could not be created

	amu    sync.Mutex
	arenas map[string]*smArenaMap // mapped peer arenas, by base path
	owners map[string]string      // owner address -> colocated base, "" if none (ownerBase)
	closed bool                   // close ran: no peer arena is mapped any more
}

func newShmBulk(base string, arenaBytes, arenaSlots int) (*shmBulk, error) {
	if arenaSlots <= 0 || arenaSlots&(arenaSlots-1) != 0 {
		return nil, fmt.Errorf("na: sm arena slots %d not a power of two", arenaSlots)
	}
	s := &shmBulk{
		host:       smHostID(),
		base:       base,
		arenaBytes: uint64(arenaBytes),
		arenaSlots: uint64(arenaSlots),
		arenas:     make(map[string]*smArenaMap),
		owners:     make(map[string]string),
	}
	s.met.Store(newArenaMetrics(obs.Default()))
	return s, nil
}

// arenaMetrics caches the instrument handles; registry lookups allocate,
// and expose/borrow run once per staged frame.
type arenaMetrics struct {
	pullLocal        *obs.Counter
	pullFallback     *obs.Counter
	exposeFallback   *obs.Counter
	mappedBytes      *obs.Gauge
	quarantinedBytes *obs.Gauge
}

func newArenaMetrics(r *obs.Registry) *arenaMetrics {
	return &arenaMetrics{
		pullLocal:        r.Counter("na.shm.pull.local"),
		pullFallback:     r.Counter("na.shm.pull.fallback"),
		exposeFallback:   r.Counter("na.shm.expose.fallback"),
		mappedBytes:      r.Gauge("na.shm.mapped.bytes"),
		quarantinedBytes: r.Gauge("na.shm.quarantined.bytes"),
	}
}

// close unlinks the arena file, drops the endpoint's reference to every
// peer mapping — each is unmapped at once, or at the done of its last
// borrow — and refuses every later borrow.
func (s *shmBulk) close() {
	s.arenaOnce.Do(func() {}) // no arena file is created after Close
	if s.arena != nil {
		s.arena.close(s.met.Load())
		os.Remove(s.base + ".blk")
	}
	s.amu.Lock()
	s.closed = true
	arenas := s.arenas
	s.arenas = map[string]*smArenaMap{}
	s.amu.Unlock()
	for _, am := range arenas {
		am.unref()
	}
}

// --- mmap helpers ---------------------------------------------------------

func smCreateMap(path string, size int) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := f.Truncate(int64(size)); err != nil {
		os.Remove(path)
		return nil, err
	}
	seg, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		os.Remove(path)
		return nil, err
	}
	return seg, nil
}

// arenaDataOff is where the data area of an arena with nslots slots starts:
// past the header and the table, on a page boundary, so that a puller can
// map the data apart from the table, read-only.
func arenaDataOff(nslots uint64) uint64 {
	page := uint64(os.Getpagesize())
	return (arenaHdrBytes + nslots*arenaSlotBytes + page - 1) / page * page
}

// slotWord addresses one word of an export-table slot for atomic access;
// table is an arena mapping's start (page-aligned, so every word is
// 8-aligned).
func slotWord(table []byte, slot uint64, field int) *uint64 {
	return (*uint64)(unsafe.Pointer(&table[arenaHdrBytes+slot*arenaSlotBytes+uint64(field)]))
}

// --- exposer side ---------------------------------------------------------

type smArena struct {
	mu      sync.Mutex
	seg     []byte
	nslots  uint64
	dataOff uint64
	dataCap uint64
	entries map[uint64]arenaSpan // id → allocated span, reserved or published
	bySlot  map[uint64]uint64    // slot → id holding it
	free    []arenaSpan          // sorted by offset, coalesced
	// quarantine holds, by slot, a released span that a borrower had pinned
	// at the release. It returns to free once the slot's reader word reads
	// 0, and its slot takes no new region until then.
	quarantine map[uint64]arenaSpan
	closing    bool // close ran: no new regions, seg unmapped once entries drain
}

type arenaSpan struct{ off, ln uint64 }

func (s *shmBulk) ensureArena() *smArena {
	s.arenaOnce.Do(func() {
		dataOff := arenaDataOff(s.arenaSlots)
		seg, err := smCreateMap(s.base+".blk", int(dataOff+s.arenaBytes))
		if err != nil {
			return
		}
		binary.LittleEndian.PutUint32(seg[0:], smArenaMagic)
		binary.LittleEndian.PutUint32(seg[4:], smArenaVersion)
		binary.LittleEndian.PutUint64(seg[aoSlots:], s.arenaSlots)
		binary.LittleEndian.PutUint64(seg[aoDataOff:], dataOff)
		binary.LittleEndian.PutUint64(seg[aoDataCap:], s.arenaBytes)
		s.arena = &smArena{
			seg:        seg,
			nslots:     s.arenaSlots,
			dataOff:    dataOff,
			dataCap:    s.arenaBytes,
			entries:    make(map[uint64]arenaSpan),
			bySlot:     make(map[uint64]uint64),
			free:       []arenaSpan{{0, s.arenaBytes}},
			quarantine: make(map[uint64]arenaSpan),
		}
	})
	return s.arena
}

// close refuses every later region, forgets the quarantine — nothing is
// allocated any more, so a pinned span can no longer be recycled under its
// borrower, who reads it through a mapping of its own — and unmaps the
// segment: at once when no region holds a span of it, otherwise at the
// release of the last one. A reservation's holder writes into its span
// without any lock of ours (ReserveLocal), so unmapping under it would turn
// that write into a SIGSEGV; the span stays valid until its ReleaseLocal
// instead.
func (a *smArena) close(m *arenaMetrics) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closing = true
	for slot, sp := range a.quarantine {
		delete(a.quarantine, slot)
		m.quarantinedBytes.Add(-int64(sp.ln))
	}
	a.unmapIfIdle()
}

// unmapIfIdle unmaps a closing arena that no region holds a span of. The
// caller holds a.mu.
func (a *smArena) unmapIfIdle() {
	if a.closing && len(a.entries) == 0 && a.seg != nil {
		syscall.Munmap(a.seg)
		a.seg = nil
	}
}

// reclaim frees the quarantined spans whose slot no borrower pins any more.
// The caller holds a.mu.
func (a *smArena) reclaim(m *arenaMetrics) {
	for slot, sp := range a.quarantine {
		if atomic.LoadUint64(slotWord(a.seg, slot, soReaders)) == 0 {
			delete(a.quarantine, slot)
			a.release(sp)
			m.quarantinedBytes.Add(-int64(sp.ln))
		}
	}
}

// alloc reserves ln bytes in the data area (first fit).
func (a *smArena) alloc(ln uint64) (uint64, bool) {
	for i, s := range a.free {
		if s.ln >= ln {
			off := s.off
			if s.ln == ln {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = arenaSpan{s.off + ln, s.ln - ln}
			}
			return off, true
		}
	}
	return 0, false
}

// release returns a span, merging with free neighbors.
func (a *smArena) release(sp arenaSpan) {
	i := 0
	for i < len(a.free) && a.free[i].off < sp.off {
		i++
	}
	a.free = append(a.free, arenaSpan{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = sp
	// Merge right then left.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].ln == a.free[i+1].off {
		a.free[i].ln += a.free[i+1].ln
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].ln == a.free[i].off {
		a.free[i-1].ln += a.free[i].ln
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// ExposeLocal publishes buf in the shared arena under the bulk id
// (LocalBulk). The arena holds its own copy, so the caller's §7 contract
// (buffer unchanged until Release) extends naturally: a borrower reads
// stable arena bytes, pinned against the release, or misses the slot and
// falls back.
func (s *shmBulk) ExposeLocal(id uint64, buf []byte) bool {
	span := s.ReserveLocal(id, len(buf))
	if span == nil {
		return false
	}
	copy(span, buf)
	if !s.PublishLocal(id, len(buf)) {
		s.ReleaseLocal(id)
		return false
	}
	return true
}

// ReserveLocal allocates n bytes of the arena and id's export-table slot,
// and returns the span unpublished (LocalBulk): the slot's words still say
// "empty", so a borrow of id misses until PublishLocal. A slot whose
// quarantined span is still pinned takes no new region.
func (s *shmBulk) ReserveLocal(id uint64, n int) []byte {
	if n <= 0 {
		return nil
	}
	a := s.ensureArena()
	if a == nil {
		return nil
	}
	m := s.met.Load()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closing {
		return nil
	}
	a.reclaim(m)
	slot := id % a.nslots
	_, busy := a.bySlot[slot]
	_, pinned := a.quarantine[slot]
	if busy || pinned {
		m.exposeFallback.Inc()
		return nil
	}
	off, ok := a.alloc(uint64(n))
	if !ok {
		m.exposeFallback.Inc()
		return nil
	}
	a.entries[id] = arenaSpan{off, uint64(n)}
	a.bySlot[slot] = id
	m.mappedBytes.Add(int64(n))
	start := a.dataOff + off
	end := start + uint64(n)
	return a.seg[start:end:end]
}

// PublishLocal points id's slot at the first n bytes of its reservation,
// under the seqlock (LocalBulk). The bytes were written before, so a
// borrower that sees the slot even sees them whole.
func (s *shmBulk) PublishLocal(id uint64, n int) bool {
	a := s.arena
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	sp, ok := a.entries[id]
	if !ok || a.closing || n <= 0 || uint64(n) > sp.ln {
		return false
	}
	slot := id % a.nslots
	seq := atomic.LoadUint64(slotWord(a.seg, slot, soSeq))
	atomic.StoreUint64(slotWord(a.seg, slot, soSeq), seq+1) // odd: in flux
	atomic.StoreUint64(slotWord(a.seg, slot, soID), id)
	atomic.StoreUint64(slotWord(a.seg, slot, soOff), sp.off)
	atomic.StoreUint64(slotWord(a.seg, slot, soLen), uint64(n))
	atomic.StoreUint64(slotWord(a.seg, slot, soSeq), seq+2) // even: published
	return true
}

// ReleaseLocal withdraws a region, published or only reserved (LocalBulk),
// under the seqlock, and then reads the slot's reader word: a span no
// borrower pins is freed, a pinned one is quarantined until its borrowers
// are done. The last release of a closing arena unmaps it.
func (s *shmBulk) ReleaseLocal(id uint64) {
	a := s.arena
	if a == nil {
		return
	}
	m := s.met.Load()
	a.mu.Lock()
	defer a.mu.Unlock()
	sp, ok := a.entries[id]
	if !ok {
		return
	}
	slot := id % a.nslots
	seq := atomic.LoadUint64(slotWord(a.seg, slot, soSeq))
	atomic.StoreUint64(slotWord(a.seg, slot, soSeq), seq+1)
	atomic.StoreUint64(slotWord(a.seg, slot, soID), 0)
	atomic.StoreUint64(slotWord(a.seg, slot, soLen), 0)
	atomic.StoreUint64(slotWord(a.seg, slot, soSeq), seq+2)
	delete(a.entries, id)
	delete(a.bySlot, slot)
	m.mappedBytes.Add(-int64(sp.ln))
	a.reclaim(m)
	if !a.closing && atomic.LoadUint64(slotWord(a.seg, slot, soReaders)) != 0 {
		a.quarantine[slot] = sp
		m.quarantinedBytes.Add(int64(sp.ln))
	} else {
		a.release(sp)
	}
	a.unmapIfIdle()
}

// --- puller side ----------------------------------------------------------

// smArenaMap is a puller's mapping of a peer's arena: the header and the
// slot table read-write, for the pins, and the data area read-only.
// Everything read through it — the header at map time, the slot words at
// every borrow — is memory another process writes, and is validated before
// it sizes a mapping or indexes one. The endpoint's table of mappings holds
// one reference and every outstanding borrow one more; the last unref
// unmaps.
type smArenaMap struct {
	table  []byte
	data   []byte
	nslots uint64
	refs   atomic.Int64
}

func (m *smArenaMap) unref() {
	if m.refs.Add(-1) == 0 {
		syscall.Munmap(m.table)
		syscall.Munmap(m.data)
	}
}

// decodeArenaHeader validates the first arenaHdrBytes of a peer's arena and
// returns the geometry that sizes the mappings. Another version's layout is
// refused: its pullers would not pin.
func decodeArenaHeader(hdr []byte) (nslots, dataOff, dataCap uint64, err error) {
	if len(hdr) < arenaHdrBytes ||
		binary.LittleEndian.Uint32(hdr[0:]) != smArenaMagic ||
		binary.LittleEndian.Uint32(hdr[4:]) != smArenaVersion {
		return 0, 0, 0, errSMCorrupt
	}
	nslots = binary.LittleEndian.Uint64(hdr[aoSlots:])
	dataOff = binary.LittleEndian.Uint64(hdr[aoDataOff:])
	dataCap = binary.LittleEndian.Uint64(hdr[aoDataCap:])
	if nslots == 0 || nslots > 1<<20 || dataOff != arenaDataOff(nslots) || dataCap == 0 || dataCap > 1<<40 {
		return 0, 0, 0, errSMCorrupt
	}
	return nslots, dataOff, dataCap, nil
}

// mapPeerArena maps the arena file at path: its header first, whose
// geometry sizes the rest, then the table read-write and the data area
// read-only. The mapping starts with one reference.
func mapPeerArena(path string) (*smArenaMap, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr [arenaHdrBytes]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, errSMCorrupt
	}
	nslots, dataOff, dataCap, err := decodeArenaHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if uint64(st.Size()) < dataOff+dataCap {
		return nil, fmt.Errorf("na: sm segment %s truncated (%d < %d)", path, st.Size(), dataOff+dataCap)
	}
	fd := int(f.Fd())
	table, err := syscall.Mmap(fd, 0, int(dataOff), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	data, err := syscall.Mmap(fd, int64(dataOff), int(dataCap), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		syscall.Munmap(table)
		return nil, err
	}
	am := &smArenaMap{table: table, data: data, nslots: nslots}
	am.refs.Store(1)
	return am, nil
}

// peerArena returns the mapping of the arena under base, mapped on first
// use, with a reference taken for the caller.
func (s *shmBulk) peerArena(base string) (*smArenaMap, error) {
	s.amu.Lock()
	if s.closed {
		s.amu.Unlock()
		return nil, ErrClosed
	}
	if am, ok := s.arenas[base]; ok {
		am.refs.Add(1)
		s.amu.Unlock()
		return am, nil
	}
	s.amu.Unlock()

	am, err := mapPeerArena(base + ".blk")
	if err != nil {
		return nil, err
	}
	s.amu.Lock()
	defer s.amu.Unlock()
	if s.closed {
		am.unref()
		return nil, ErrClosed
	}
	if old, ok := s.arenas[base]; ok {
		am.unref()
		am = old
	} else {
		s.arenas[base] = am
	}
	am.refs.Add(1)
	return am, nil
}

// borrow pins region id's slot and returns the first n bytes of the region
// as they lie in the data area; unpin(slot) takes the pin back.
// ok=false means anything else — another id in the slot, a slot in flux or
// changed under the reads, a range the words do not cover — and leaves the
// reader word as it found it. The bounds are compared without adding, so
// no hostile off/len can wrap past them.
func (m *smArenaMap) borrow(id uint64, n int) (view []byte, slot uint64, ok bool) {
	slot = id % m.nslots
	atomic.AddUint64(slotWord(m.table, slot, soReaders), 1)
	s1 := atomic.LoadUint64(slotWord(m.table, slot, soSeq))
	if s1&1 == 0 && atomic.LoadUint64(slotWord(m.table, slot, soID)) == id {
		ofs := atomic.LoadUint64(slotWord(m.table, slot, soOff))
		ln := atomic.LoadUint64(slotWord(m.table, slot, soLen))
		dataCap := uint64(len(m.data))
		if ofs <= dataCap && ln <= dataCap-ofs && uint64(n) <= ln &&
			atomic.LoadUint64(slotWord(m.table, slot, soSeq)) == s1 {
			end := ofs + uint64(n)
			return m.data[ofs:end:end], slot, true
		}
	}
	m.unpin(slot)
	return nil, 0, false
}

func (m *smArenaMap) unpin(slot uint64) {
	atomic.AddUint64(slotWord(m.table, slot, soReaders), ^uint64(0))
}

// BorrowLocal pins the first n bytes of the region id published by the
// endpoint at ownerAddr and returns them where they lie, in this endpoint's
// read-only mapping of the owner's arena (LocalBulk). Each call counts once:
// na.shm.pull.local for a view, na.shm.pull.fallback for a miss against a
// colocated owner.
func (s *shmBulk) BorrowLocal(ownerAddr string, id uint64, n int) (view []byte, done func(), ok bool) {
	base := s.ownerBase(ownerAddr)
	if base == "" {
		return nil, nil, false
	}
	m := s.met.Load()
	am, err := s.peerArena(base)
	if err != nil {
		m.pullFallback.Inc()
		return nil, nil, false
	}
	view, slot, ok := am.borrow(id, n)
	if !ok {
		am.unref()
		m.pullFallback.Inc()
		return nil, nil, false
	}
	m.pullLocal.Inc()
	l := arenaLoans.Get().(*arenaLoan)
	l.am, l.slot = am, slot
	return view, l.done, true
}

// ownerBase returns the segment base of a colocated owner's arena, "" when
// ownerAddr names no peer on this host (or names this endpoint). The answer
// depends on the address alone, so it is worked out once per owner:
// SplitAddr builds a string for a composite address.
func (s *shmBulk) ownerBase(ownerAddr string) string {
	s.amu.Lock()
	base, known := s.owners[ownerAddr]
	s.amu.Unlock()
	if known {
		return base
	}
	if smAddr, _ := SplitAddr(ownerAddr); smAddr != "" {
		if host, b, ok := smHostBase(smAddr); ok && host == s.host && b != s.base {
			base = b
		}
	}
	s.amu.Lock()
	if len(s.owners) >= maxRoutes {
		clear(s.owners)
	}
	s.owners[ownerAddr] = base
	s.amu.Unlock()
	return base
}

// arenaLoan is one borrow's pin on a peer arena. Loans are pooled with
// their bound done, so a borrow allocates nothing.
type arenaLoan struct {
	am   *smArenaMap
	slot uint64
	done func()
}

var arenaLoans sync.Pool

func init() {
	// Set here, not in the declaration: release refers to the pool.
	arenaLoans.New = func() any {
		l := &arenaLoan{}
		l.done = l.release
		return l
	}
}

func (l *arenaLoan) release() {
	am, slot := l.am, l.slot
	l.am = nil
	arenaLoans.Put(l)
	am.unpin(slot)
	am.unref()
}
