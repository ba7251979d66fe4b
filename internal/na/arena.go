package na

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"colza/internal/obs"
)

// This file implements the shared-memory bulk arena, the LocalBulk half of
// a dual endpoint (the analog of what Mercury's na+sm plugin does for bulk
// data): exposed bulk regions are published in a per-endpoint arena, a
// memfd, and a colocated puller maps the arena its owner handed it over
// their unix-socket connection (tcp.go: sendOffer, recvOffer) and reads the
// bytes where they lie, skipping the chunked bulk-pull RPC protocol
// entirely (DESIGN.md §12). Lifecycle invariants:
//
//   - the arena is no file: the kernel frees it with its last descriptor
//     and mapping, however its processes end;
//   - it is sealed against shrinking before any peer sees it, and a puller
//     maps only an arena so sealed: no owner can turn a read into SIGBUS;
//   - the owner's mapping outlives Close until the last region holding a
//     span of it is released (smArena.close); a puller's lives as long as
//     the connection that brought it, and until its last borrow is done
//     (smArenaMap.unref);
//   - a span a borrower has pinned is not recycled until the pin is gone
//     (the quarantine);
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

// memfd_create(2) flags, fcntl(2) seal commands and seals: stdlib syscall
// names none of them.
const (
	mfdCloexec, mfdAllowSealing = 0x1, 0x2
	fAddSeals, fGetSeals        = 1033, 1034
	sealSeal, sealShrink        = 0x1, 0x2
)

// shmBulk implements LocalBulk for a dual endpoint: the arena it publishes
// its own regions in, its memfd, which it offers every peer it dials, and
// the mappings of the arenas its colocated peers offered it, by address (a
// nil mapping is an offer refused; peers is nil once close ran).
type shmBulk struct {
	met   atomic.Pointer[arenaMetrics]
	arena *smArena
	file  *os.File
	amu   sync.Mutex
	peers map[string]*smArenaMap
}

// newShmBulk makes an endpoint's arena: a memfd of the header, a table of
// arenaSlots slots and arenaBytes of data, sparse (only touched pages
// consume memory), mapped read-write and sealed against shrinking and
// further seals, but not writes: pullers write their pins into its table.
func newShmBulk(arenaBytes, arenaSlots int) (*shmBulk, error) {
	if arenaSlots <= 0 || arenaSlots&(arenaSlots-1) != 0 {
		return nil, fmt.Errorf("na: sm arena slots %d not a power of two", arenaSlots)
	}
	nslots, dataCap := uint64(arenaSlots), uint64(arenaBytes)
	dataOff := arenaDataOff(nslots)
	fd, err := memfdCreate()
	if err != nil {
		return nil, fmt.Errorf("na: sm arena: %w", err)
	}
	file := os.NewFile(uintptr(fd), "colza-arena")
	var seg []byte
	if err = file.Truncate(int64(dataOff + dataCap)); err == nil {
		if _, err = fcntl(fd, fAddSeals, sealShrink|sealSeal); err == nil {
			seg, err = syscall.Mmap(fd, 0, int(dataOff+dataCap), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
		}
	}
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("na: sm arena: %w", err)
	}
	binary.LittleEndian.PutUint32(seg[0:], smArenaMagic)
	binary.LittleEndian.PutUint32(seg[4:], smArenaVersion)
	binary.LittleEndian.PutUint64(seg[aoSlots:], nslots)
	binary.LittleEndian.PutUint64(seg[aoDataOff:], dataOff)
	binary.LittleEndian.PutUint64(seg[aoDataCap:], dataCap)
	s := &shmBulk{
		file: file,
		arena: &smArena{
			seg:        seg,
			nslots:     nslots,
			dataOff:    dataOff,
			dataCap:    dataCap,
			entries:    make(map[uint64]arenaSpan),
			bySlot:     make(map[uint64]uint64),
			free:       []arenaSpan{{0, dataCap}},
			quarantine: make(map[uint64]arenaSpan),
		},
		peers: make(map[string]*smArenaMap),
	}
	s.met.Store(newArenaMetrics(obs.Default()))
	return s, nil
}

// memfdCreate makes an anonymous memory file (memfd_create(2)) that closes
// on exec and can be sealed.
func memfdCreate() (int, error) {
	if sysMemfdCreate == 0 {
		return -1, errors.New("dual endpoints need Linux (memfd_create)")
	}
	name := []byte("colza-arena\x00")
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(&name[0])), mfdCloexec|mfdAllowSealing, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

func fcntl(fd, cmd, arg int) (int, error) {
	r, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), uintptr(cmd), uintptr(arg))
	if errno != 0 {
		return 0, errno
	}
	return int(r), nil
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

// close closes the arena — its memfd now, its mapping at the last release
// (smArena.close) — and drops the endpoint's reference to every peer
// mapping, each unmapped at once or at the done of its last borrow; no
// later offer is filed.
func (s *shmBulk) close() {
	s.arena.close(s.met.Load())
	s.file.Close()
	s.amu.Lock()
	peers := s.peers
	s.peers = nil
	s.amu.Unlock()
	for _, am := range peers {
		am.unref()
	}
}

// --- mmap helpers ---------------------------------------------------------

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
	a, m := s.arena, s.met.Load()
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
	a, m := s.arena, s.met.Load()
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
// unmaps. A nil mapping (an offer refused) holds nothing to unref.
type smArenaMap struct {
	table  []byte
	data   []byte
	nslots uint64
	refs   atomic.Int64
}

func (m *smArenaMap) unref() {
	if m != nil && m.refs.Add(-1) == 0 {
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

// mapOffer maps the arena a colocated peer offered as the descriptor fd —
// the table read-write, for the pins, and the data area read-only — and
// returns the mapping with one reference, or nil: it maps only a memfd
// sealed against shrinking, with a header decodeArenaHeader accepts, at
// least as long as the header says. fd stays the caller's.
func mapOffer(fd int) *smArenaMap {
	if seals, err := fcntl(fd, fGetSeals, 0); err != nil || seals&sealShrink == 0 {
		return nil
	}
	var hdr [arenaHdrBytes]byte
	n, _ := syscall.Pread(fd, hdr[:], 0)
	nslots, dataOff, dataCap, err := decodeArenaHeader(hdr[:max(n, 0)])
	var st syscall.Stat_t
	if err != nil || syscall.Fstat(fd, &st) != nil || uint64(st.Size) < dataOff+dataCap {
		return nil
	}
	table, err := syscall.Mmap(fd, 0, int(dataOff), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil
	}
	data, err := syscall.Mmap(fd, int64(dataOff), int(dataCap), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		syscall.Munmap(table)
		return nil
	}
	am := &smArenaMap{table: table, data: data, nslots: nslots}
	am.refs.Store(1)
	return am
}

// fileOffer files the mapping of the arena a peer offered on a new
// connection under its address, in place of an older connection's; a nil
// one, an offer refused, still marks the peer colocated (BorrowLocal
// counts its misses).
func (s *shmBulk) fileOffer(from string, am *smArenaMap) {
	s.amu.Lock()
	old := s.peers[from]
	if s.peers != nil {
		s.peers[from] = am
	} else {
		old = am // closed: the new mapping goes at once
	}
	s.amu.Unlock()
	old.unref()
}

// dropOffer forgets the mapping a closing connection brought, unless a
// newer connection's offer replaced it already.
func (s *shmBulk) dropOffer(from string, am *smArenaMap) {
	s.amu.Lock()
	mine := s.peers[from] == am
	if mine {
		delete(s.peers, from)
	}
	s.amu.Unlock()
	if mine {
		am.unref()
	}
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
// read-only mapping of the arena the owner offered it (LocalBulk). An owner
// that never dialed this endpoint's unix socket is no colocated peer. Each
// call against one counts once: na.shm.pull.local for a view,
// na.shm.pull.fallback for a miss or a refused offer.
func (s *shmBulk) BorrowLocal(ownerAddr string, id uint64, n int) (view []byte, done func(), ok bool) {
	s.amu.Lock()
	am, colocated := s.peers[ownerAddr]
	if am != nil {
		am.refs.Add(1)
	}
	s.amu.Unlock()
	if !colocated {
		return nil, nil, false
	}
	m := s.met.Load()
	if am != nil {
		if view, slot, ok := am.borrow(id, n); ok {
			m.pullLocal.Inc()
			l := arenaLoans.Get().(*arenaLoan)
			l.am, l.slot = am, slot
			return view, l.done, true
		}
		am.unref()
	}
	m.pullFallback.Inc()
	return nil, nil, false
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
