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
// arena and copies the bytes straight out of it, skipping the chunked
// bulk-pull RPC protocol entirely (DESIGN.md §12). RPC frames do not come
// through here — they ride the endpoint's stream sockets (tcp.go).
//
// Lifecycle invariants:
//
//   - the arena file is created on the first ExposeLocal or ReserveLocal
//     and unlinked on Close, next to the endpoint's unix socket; only a
//     process killed without Close can orphan them, and the next listener
//     in the same directory removes what a dead pid left (gcStaleSegments);
//   - the mapping outlives Close until the last region holding a span of
//     it is released (smArena.close);
//   - every PullLocal outcome other than "bytes copied under a stable
//     seqlock" sends the caller to the RPC pull path, which stays
//     authoritative.

// Arena segment layout (the LocalBulk export table + data area; all fields
// little-endian):
//
//	0   magic uint32 / 4 version uint32
//	8   slot count uint64
//	16  data offset uint64
//	24  data capacity uint64
//	64  slots: nslots × 32B {seq u64, id u64, off u64, len u64}
//	... data area
//
// Publication uses a per-slot seqlock: the exposer writes the bytes into a
// span no published slot points at, then bumps seq to odd, writes
// id/off/len, bumps seq to even. A puller reads seq, copies, and re-reads
// seq — any change means the copy may have observed a concurrent
// release/re-expose and the puller falls back to the RPC pull path, which
// stays authoritative.
const (
	smArenaMagic   = 0x435a5342 // "CZSB"
	smArenaVersion = 1
	arenaHdrBytes  = 64
	arenaSlotBytes = 32

	aoSlots   = 8
	aoDataOff = 16
	aoDataCap = 24

	soSeq = 0
	soID  = 8
	soOff = 16
	soLen = 24
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
// base: the arena it publishes its own regions in, and read-only mappings
// of the colocated peers' arenas it pulls from.
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
	}
	s.met.Store(newArenaMetrics(obs.Default()))
	return s, nil
}

// arenaMetrics caches the instrument handles; registry lookups allocate,
// and expose/pull run once per staged frame.
type arenaMetrics struct {
	pullLocal      *obs.Counter
	pullFallback   *obs.Counter
	exposeFallback *obs.Counter
	mappedBytes    *obs.Gauge
}

func newArenaMetrics(r *obs.Registry) *arenaMetrics {
	return &arenaMetrics{
		pullLocal:      r.Counter("na.shm.pull.local"),
		pullFallback:   r.Counter("na.shm.pull.fallback"),
		exposeFallback: r.Counter("na.shm.expose.fallback"),
		mappedBytes:    r.Gauge("na.shm.mapped.bytes"),
	}
}

// close releases every mapping and unlinks the arena file.
func (s *shmBulk) close() {
	s.arenaOnce.Do(func() {}) // no arena file is created after Close
	if s.arena != nil {
		s.arena.close()
		os.Remove(s.base + ".blk")
	}
	s.amu.Lock()
	for _, am := range s.arenas {
		am.close()
	}
	s.arenas = map[string]*smArenaMap{}
	s.amu.Unlock()
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

// smOpenMap maps the first size bytes of a peer's segment read-only.
func smOpenMap(path string, size int) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < int64(size) {
		return nil, fmt.Errorf("na: sm segment %s truncated (%d < %d)", path, st.Size(), size)
	}
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

// slotWord addresses one word of an export-table slot for atomic access;
// seg is an arena mapping (page-aligned, so every word is 8-aligned).
func slotWord(seg []byte, slot uint64, field int) *uint64 {
	return (*uint64)(unsafe.Pointer(&seg[arenaHdrBytes+slot*arenaSlotBytes+uint64(field)]))
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
	closing bool                 // close ran: no new regions, seg unmapped once entries drain
}

type arenaSpan struct{ off, ln uint64 }

func (s *shmBulk) ensureArena() *smArena {
	s.arenaOnce.Do(func() {
		dataOff := uint64(arenaHdrBytes) + s.arenaSlots*arenaSlotBytes
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
			seg:     seg,
			nslots:  s.arenaSlots,
			dataOff: dataOff,
			dataCap: s.arenaBytes,
			entries: make(map[uint64]arenaSpan),
			bySlot:  make(map[uint64]uint64),
			free:    []arenaSpan{{0, s.arenaBytes}},
		}
	})
	return s.arena
}

// close refuses every later region and unmaps the segment — at once when no
// region holds a span of it, otherwise at the release of the last one. A
// reservation's holder writes into its span without any lock of ours
// (ReserveLocal), so unmapping under it would turn that write into a
// SIGSEGV; the span stays valid until its ReleaseLocal instead.
func (a *smArena) close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closing = true
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
// (buffer unchanged until Release) extends naturally: even a pull racing
// a release reads stable arena bytes or misses the slot and falls back.
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
// "empty", so a pull of id misses until PublishLocal.
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
	slot := id % a.nslots
	if _, busy := a.bySlot[slot]; busy {
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
// under the seqlock (LocalBulk). The bytes were written before, so a puller
// that sees the slot even sees them whole.
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

// ReleaseLocal withdraws a region, published or only reserved, and frees its
// span (LocalBulk); the last release of a closing arena unmaps it.
func (s *shmBulk) ReleaseLocal(id uint64) {
	a := s.arena
	if a == nil {
		return
	}
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
	a.release(sp)
	s.met.Load().mappedBytes.Add(-int64(sp.ln))
	a.unmapIfIdle()
}

// --- puller side ----------------------------------------------------------

// smArenaMap is a read-only mapping of a peer's arena. Everything read
// through it — the header at map time, the slot words at every pull — is
// memory another process writes, and is validated before it sizes a mapping
// or indexes one.
type smArenaMap struct {
	seg     []byte
	nslots  uint64
	dataOff uint64
	dataCap uint64
}

func (m *smArenaMap) close() {
	if m.seg != nil {
		syscall.Munmap(m.seg)
		m.seg = nil
	}
}

// decodeArenaHeader validates the first arenaHdrBytes of a peer's arena and
// returns the geometry that sizes the full mapping.
func decodeArenaHeader(hdr []byte) (nslots, dataOff, dataCap uint64, err error) {
	if len(hdr) < arenaHdrBytes ||
		binary.LittleEndian.Uint32(hdr[0:]) != smArenaMagic ||
		binary.LittleEndian.Uint32(hdr[4:]) != smArenaVersion {
		return 0, 0, 0, errSMCorrupt
	}
	nslots = binary.LittleEndian.Uint64(hdr[aoSlots:])
	dataOff = binary.LittleEndian.Uint64(hdr[aoDataOff:])
	dataCap = binary.LittleEndian.Uint64(hdr[aoDataCap:])
	if nslots == 0 || nslots > 1<<20 || dataOff != uint64(arenaHdrBytes)+nslots*arenaSlotBytes || dataCap > 1<<40 {
		return 0, 0, 0, errSMCorrupt
	}
	return nslots, dataOff, dataCap, nil
}

func (s *shmBulk) peerArena(base string) (*smArenaMap, error) {
	s.amu.Lock()
	if am, ok := s.arenas[base]; ok {
		s.amu.Unlock()
		return am, nil
	}
	s.amu.Unlock()

	// Header first: slot count and data bounds size the full mapping.
	hdr, err := smOpenMap(base+".blk", arenaHdrBytes)
	if err != nil {
		return nil, err
	}
	nslots, dataOff, dataCap, err := decodeArenaHeader(hdr)
	syscall.Munmap(hdr)
	if err != nil {
		return nil, err
	}
	full, err := smOpenMap(base+".blk", int(dataOff+dataCap))
	if err != nil {
		return nil, err
	}
	am := &smArenaMap{seg: full, nslots: nslots, dataOff: dataOff, dataCap: dataCap}
	s.amu.Lock()
	if old, ok := s.arenas[base]; ok {
		s.amu.Unlock()
		am.close()
		return old, nil
	}
	s.arenas[base] = am
	s.amu.Unlock()
	return am, nil
}

// pullLocalAttempts bounds the seqlock retry loop: a slot that keeps
// changing under the copy is under active churn, and the RPC path is the
// authoritative tiebreaker anyway.
const pullLocalAttempts = 3

// pull copies the first len(dst) bytes of region id out of the mapping,
// under the slot's seqlock. False means anything else: another id in the
// slot, a range the slot's words do not cover, a slot that kept changing.
// The bounds are compared without adding, so no hostile off/len can wrap
// past them.
func (m *smArenaMap) pull(id uint64, dst []byte) bool {
	slot := id % m.nslots
	for attempt := 0; attempt < pullLocalAttempts; attempt++ {
		s1 := atomic.LoadUint64(slotWord(m.seg, slot, soSeq))
		if s1&1 != 0 {
			continue
		}
		if atomic.LoadUint64(slotWord(m.seg, slot, soID)) != id {
			return false
		}
		ln := atomic.LoadUint64(slotWord(m.seg, slot, soLen))
		ofs := atomic.LoadUint64(slotWord(m.seg, slot, soOff))
		if ofs > m.dataCap || ln > m.dataCap-ofs || uint64(len(dst)) > ln {
			return false
		}
		start := m.dataOff + ofs
		copy(dst, m.seg[start:start+uint64(len(dst))])
		if atomic.LoadUint64(slotWord(m.seg, slot, soSeq)) == s1 {
			return true
		}
	}
	return false
}

// PullLocal maps the exposer's arena and copies the first len(dst) bytes
// of region id straight out of shared memory (LocalBulk). done=false sends
// the caller to the RPC pull path.
func (s *shmBulk) PullLocal(ownerAddr string, id uint64, dst []byte) (bool, error) {
	smAddr, _ := SplitAddr(ownerAddr)
	if smAddr == "" {
		return false, nil
	}
	host, base, ok := smHostBase(smAddr)
	if !ok || host != s.host || base == s.base {
		return false, nil
	}
	m := s.met.Load()
	am, err := s.peerArena(base)
	if err != nil || !am.pull(id, dst) {
		m.pullFallback.Inc()
		return false, nil
	}
	m.pullLocal.Inc()
	return true, nil
}
