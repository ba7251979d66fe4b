package mercury

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colza/internal/bufpool"
)

// Bulk is a handle to a registered memory region on some process. It is
// small and serializable: Colza's stage() RPC sends a Bulk instead of a
// pointer, and the staging server fetches the bytes with PullBulkInto —
// mirroring Mercury's RDMA semantics. A region of at most eagerLimit bytes
// that is not published in a shared-memory arena rides inside the serialized
// handle (Mercury's eager path); larger ones are pulled (rendezvous).
type Bulk struct {
	Addr string // owner's class address
	ID   uint64 // registration id at the owner
	Size int    // region length in bytes

	// eager is the region itself when it travels with the handle (len ==
	// Size), nil otherwise. Expose sets it on the owner so AppendEncode can
	// embed the bytes; DecodeBulk sets it to the embedded bytes, aliasing the
	// decoded frame, and marks the handle inFrame. Only an inFrame handle is
	// served from eager: one that never crossed the wire pulls as any other.
	eager   []byte
	inFrame bool
}

// eagerLimit is the largest region that rides inside its serialized handle
// instead of being pulled: one round trip and no pull response below it, the
// chunked pull protocol above. DESIGN.md ("Eager bulk") has the size sweep it
// was chosen from. A queued request pins at most this much beyond its header.
const eagerLimit = 128 << 10

// bulkEagerFlag in the address-length word marks a handle whose region
// follows the address as u32 length + bytes.
const bulkEagerFlag = 1 << 31

// EncodedSize is the exact length of AppendEncode's head: the handle's
// encoding less an eager region, which follows it on the wire.
func (b Bulk) EncodedSize() int {
	n := 20 + len(b.Addr)
	if b.eager != nil {
		n += 4
	}
	return n
}

// Encode serializes the handle, an eager region included.
func (b Bulk) Encode() []byte {
	head, tail := b.AppendEncode(make([]byte, 0, b.EncodedSize()+len(b.eager)))
	return append(head, tail...)
}

// AppendEncode appends the serialized handle up to and including an eager
// region's length word to dst, and returns the region itself as tail (nil
// when the region is pulled): head then tail is the encoding. With
// EncodedSize of spare capacity it does not allocate. The region is not
// copied — tail aliases the exposed buffer — so it has to be sent before
// the handle's Release.
func (b Bulk) AppendEncode(dst []byte) (head, tail []byte) {
	al := uint32(len(b.Addr))
	if b.eager != nil {
		al |= bulkEagerFlag
	}
	dst = binary.LittleEndian.AppendUint64(dst, b.ID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(b.Size))
	dst = binary.LittleEndian.AppendUint32(dst, al)
	dst = append(dst, b.Addr...)
	if b.eager != nil {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.eager)))
	}
	return dst, b.eager
}

// DecodeBulk reverses Bulk.Encode, returning the remaining bytes. Malformed
// input (short frames, negative sizes, address or region lengths past the
// buffer, an embedded region whose length is not Size) errors without
// allocating proportionally to the claimed lengths. An embedded region is
// not copied: the handle aliases data, so it is valid only as long as data
// is — for a request payload, the duration of the handler. from is the
// address the handle most likely names, a request's Request.From: an owner
// address equal to it is that string, not a copy (pass "" for none).
func DecodeBulk(data []byte, from string) (Bulk, []byte, error) {
	if len(data) < 20 {
		return Bulk{}, nil, ErrBadBulk
	}
	var b Bulk
	b.ID = binary.LittleEndian.Uint64(data)
	b.Size = int(binary.LittleEndian.Uint64(data[8:]))
	if b.Size < 0 {
		return Bulk{}, nil, ErrBadBulk
	}
	al := binary.LittleEndian.Uint32(data[16:])
	embedded := al&bulkEagerFlag != 0
	al &^= bulkEagerFlag
	data = data[20:]
	if int64(len(data)) < int64(al) {
		return Bulk{}, nil, ErrBadBulk
	}
	b.Addr = from
	if string(data[:al]) != from {
		b.Addr = string(data[:al])
	}
	data = data[al:]
	if embedded {
		if len(data) < 4 {
			return Bulk{}, nil, ErrBadBulk
		}
		n := int64(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if n != int64(b.Size) || n > int64(len(data)) {
			return Bulk{}, nil, ErrBadBulk
		}
		b.eager, b.inFrame = data[:n:n], true
		data = data[n:]
	}
	return b, data, nil
}

// SharesBulk reports whether the endpoint publishes exposed regions in a
// shared-memory arena (na.LocalBulk). One predicate, two decisions that must
// not drift apart: Expose sends no such region eagerly (colocated pullers map
// it instead), and a core pipeline handle coalesces staged blocks exactly
// there, where no block can ride in its stage frame.
func (c *Class) SharesBulk() bool { return c.arena != nil }

// region is one registered bulk region. inArena marks a span of the
// endpoint's shared arena (Reserve), which the arena recycles at Release —
// and unmaps, once the endpoint has closed — so nothing may read it after
// Release returns.
type region struct {
	buf     []byte
	inArena bool
}

// Expose registers buf as pull-able memory and returns its handle. The
// caller must keep buf alive and unchanged until Release; the region is
// referenced, not copied, as with pinned RDMA memory. In particular a
// pooled buffer must not be recycled (bufpool.Put) while exposed: a late
// puller would read recycled bytes. Release first, then recycle.
func (c *Class) Expose(buf []byte) Bulk {
	id := c.nextBk.Add(1)
	c.bmu.Lock()
	c.bulks[id] = region{buf: buf}
	c.bmu.Unlock()
	c.bulkM.for_(c.observer()).exposed.Add(int64(len(buf)))
	b := Bulk{Addr: c.Addr(), ID: id, Size: len(buf)}
	if c.SharesBulk() {
		// Additionally publish the region in the endpoint's shared segment so
		// colocated pullers can read it in place, in mapped memory.
		// Best-effort: on any failure pulls simply use the RPC path against
		// c.bulks. IDs are never reused (nextBk only grows), so a stale
		// publication can never alias a new region.
		c.arena.ExposeLocal(id, buf)
	} else if len(buf) > 0 && len(buf) <= eagerLimit {
		// A small region nobody can map travels inside the serialized handle
		// (an empty one needs no transfer at all).
		b.eager = buf
	}
	return b
}

// Reserve takes n bytes of the endpoint's shared arena for a region the
// caller assembles in place, sparing the copy Expose makes into the arena.
// span is writable but not yet pull-able; ExposeReserved exposes a prefix
// of it, and Release frees it, exposed or not. The caller may write span
// until it calls Release and never after: the arena recycles the span then.
// span is nil when the endpoint has no arena (SharesBulk) or the arena
// declines (full, export-table slot taken, endpoint closed); the caller
// then assembles in its own memory and uses Expose.
func (c *Class) Reserve(n int) (r Bulk, span []byte) {
	if !c.SharesBulk() {
		return Bulk{}, nil
	}
	id := c.nextBk.Add(1)
	if span = c.arena.ReserveLocal(id, n); span == nil {
		return Bulk{}, nil
	}
	c.bmu.Lock()
	c.bulks[id] = region{buf: span, inArena: true}
	c.bmu.Unlock()
	c.bulkM.for_(c.observer()).exposed.Add(int64(n))
	return Bulk{Addr: c.Addr(), ID: id, Size: n}, span
}

// ExposeReserved exposes the first n bytes of the reservation r (0 <= n <=
// r.Size) as they stand, without copying them, and returns their handle;
// Release of either handle frees the whole span. Colocated pullers read the
// bytes in the arena, everyone else pulls them over RPC.
func (c *Class) ExposeReserved(r Bulk, n int) Bulk {
	c.bmu.Lock()
	old, ok := c.bulks[r.ID]
	if ok {
		c.bulks[r.ID] = region{buf: old.buf[:n], inArena: true}
	}
	c.bmu.Unlock()
	if ok {
		c.bulkM.for_(c.observer()).exposed.Add(int64(n - len(old.buf)))
		c.arena.PublishLocal(r.ID, n)
	}
	return Bulk{Addr: r.Addr, ID: r.ID, Size: n}
}

// Release deregisters a previously exposed or reserved region. After
// Release, pulls against the handle fail with ErrBadBulk (the
// use-after-release guard) and the caller may recycle or mutate the buffer —
// or, for a reservation, must no longer touch it.
func (c *Class) Release(b Bulk) {
	c.bmu.Lock()
	r, ok := c.bulks[b.ID]
	delete(c.bulks, b.ID)
	c.bmu.Unlock()
	if ok {
		c.bulkM.for_(c.observer()).exposed.Add(int64(-len(r.buf)))
		if c.SharesBulk() {
			c.arena.ReleaseLocal(b.ID)
		}
	}
}

// ExposedBytes sums the sizes of all currently exposed or reserved regions.
// Leak-check helpers assert it returns to zero at shutdown: every Expose and
// Reserve must have been matched by a Release.
func (c *Class) ExposedBytes() int64 {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	var total int64
	for _, r := range c.bulks {
		total += int64(len(r.buf))
	}
	return total
}

func (c *Class) bulkChunkSize() int {
	if n := c.chunk.Load(); n > 0 {
		return int(n)
	}
	return bulkChunk
}

// bulkPullConc bounds the goroutines pulling chunks of one region
// concurrently — the analog of the RDMA pipeline depth.
const bulkPullConc = 4

// PullBulkInto fetches the full region into dst, which must have length
// b.Size. It is the one way to copy a region: one that rode in the frame b
// was decoded from is copied out of it, a colocated exposer's arena is
// borrowed, copied and handed back, and anything else arrives in chunks
// over the bulk-pull RPC. Chunks land concurrently; the call does not
// return — even on error — until every in-flight chunk write to dst has
// finished, so the caller may recycle dst immediately afterwards.
func (c *Class) PullBulkInto(b Bulk, dst []byte) error {
	if b.Size < 0 || len(dst) != b.Size {
		return ErrBadBulk
	}
	m := c.bulkM.for_(c.observer())
	if b.inFrame {
		m.countEager(b.Size)
		copy(dst, b.eager)
		return nil
	}
	defer m.endPull(m.startPull(b.Size))
	if b.Size == 0 {
		return nil
	}
	if view, done, ok := c.borrowLocal(b); ok {
		copy(dst, view)
		done()
		return nil
	}
	return c.pullRPC(b, dst)
}

// BorrowBulk lends the caller the region's bytes until it calls done, which
// it must do exactly once, without copying them where it can: a region that
// rode inside the frame b was decoded from is that frame's bytes, a region
// in a colocated exposer's arena is read where it lies, pinned there until
// done (na.LocalBulk.BorrowLocal), and anything else is pulled over RPC into
// a pooled buffer that done recycles. Either way the bytes are on loan: the
// caller reads them before done and never writes them — an arena view is
// mapped read-only, and another process may write it meanwhile.
func (c *Class) BorrowBulk(b Bulk) (region []byte, done func(), err error) {
	if b.Size < 0 {
		return nil, nil, ErrBadBulk
	}
	m := c.bulkM.for_(c.observer())
	if b.inFrame {
		m.countEager(b.Size)
		return b.eager, noLoan, nil
	}
	defer m.endPull(m.startPull(b.Size))
	if b.Size == 0 {
		return nil, noLoan, nil
	}
	if view, done, ok := c.borrowLocal(b); ok {
		return view, done, nil
	}
	l := pulledLoans.Get().(*pulledLoan)
	l.buf = bufpool.Get(b.Size)
	if err := c.pullRPC(b, l.buf); err != nil {
		l.release()
		return nil, nil, err
	}
	return l.buf, l.done, nil
}

// noLoan is the done of a borrow that holds nothing.
func noLoan() {}

// pulledLoan holds a region pulled into a pooled buffer until its done.
// Loans are recycled together with their bound done, so a borrow over RPC
// allocates nothing the pull did not.
type pulledLoan struct {
	buf  []byte
	done func()
}

var pulledLoans sync.Pool

func init() {
	// Set here, not in the declaration: release refers to the pool.
	pulledLoans.New = func() any {
		l := &pulledLoan{}
		l.done = l.release
		return l
	}
}

func (l *pulledLoan) release() {
	bufpool.Put(l.buf)
	l.buf = nil
	pulledLoans.Put(l)
}

// countEager counts a region that rode in its frame: no RPC, and not a pull
// in the counters either.
func (m *bulkMetrics) countEager(n int) {
	m.eagerCount.Inc()
	m.eagerBytes.Add(int64(n))
}

// startPull counts a pull of n bytes and returns its start, for endPull to
// observe the latency: `defer m.endPull(m.startPull(n))`.
func (m *bulkMetrics) startPull(n int) time.Duration {
	m.count.Inc()
	m.bytes.Add(int64(n))
	return m.reg.Now()
}

func (m *bulkMetrics) endPull(start time.Duration) {
	m.latency.Observe(int64(m.reg.Now() - start))
}

// borrowLocal borrows b from a colocated exposer's shared arena. ok=false
// (no arena here, peer not colocated, region not published, slot in flux)
// sends the caller to the RPC pull, which remains authoritative — notably
// for use-after-release, which must surface as ErrBadBulk.
func (c *Class) borrowLocal(b Bulk) (view []byte, done func(), ok bool) {
	if !c.SharesBulk() {
		return nil, nil, false
	}
	return c.arena.BorrowLocal(b.Addr, b.ID, b.Size)
}

// pullRPC fetches the region into dst in chunks over the bulk-pull RPC,
// up to bulkPullConc of them in flight, and joins every worker before it
// returns.
func (c *Class) pullRPC(b Bulk, dst []byte) error {
	n := len(dst)
	chunk := c.bulkChunkSize()
	nchunks := (n + chunk - 1) / chunk
	if nchunks == 1 {
		return c.pullChunk(b, 0, dst)
	}
	workers := bulkPullConc
	if workers > nchunks {
		workers = nchunks
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for firstErr.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= nchunks {
					return
				}
				lo := i * chunk
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if err := c.pullChunk(b, lo, dst[lo:hi]); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}()
	}
	// Join every worker before returning: dst must never be written after
	// PullBulkInto returns, or a recycled buffer could be scribbled on.
	wg.Wait()
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// pullChunk performs one bulk-pull round trip for dst's worth of bytes at
// region offset off.
func (c *Class) pullChunk(b Bulk, off int, dst []byte) error {
	var req [24]byte
	binary.LittleEndian.PutUint64(req[:], b.ID)
	binary.LittleEndian.PutUint64(req[8:], uint64(off))
	binary.LittleEndian.PutUint64(req[16:], uint64(len(dst)))
	piece, frame, err := c.callGather(b.Addr, bulkPullRPC, nil, req[:], 0)
	if err != nil {
		return fmt.Errorf("mercury: bulk pull from %s: %w", b.Addr, err)
	}
	defer Recycle(frame)
	if len(piece) != len(dst) {
		return fmt.Errorf("%w: short pull (%d of %d bytes)", ErrBadBulk, len(piece), len(dst))
	}
	copy(dst, piece)
	return nil
}

// handleBulkPull serves one chunk of an exposed region.
func (c *Class) handleBulkPull(req Request) ([]byte, error) {
	if len(req.Payload) != 24 {
		return nil, ErrBadBulk
	}
	id := binary.LittleEndian.Uint64(req.Payload)
	off := int(binary.LittleEndian.Uint64(req.Payload[8:]))
	n := int(binary.LittleEndian.Uint64(req.Payload[16:]))
	c.bmu.Lock()
	defer c.bmu.Unlock()
	r, ok := c.bulks[id]
	// Bounded without computing off+n, which a hostile request can
	// overflow past the check into a panicking slice expression.
	if !ok || off < 0 || n < 0 || off > len(r.buf) || n > len(r.buf)-off {
		return nil, ErrBadBulk
	}
	if r.inArena {
		// The transport writes the response after this returns, when a
		// racing Release may have recycled the span or unmapped it: the
		// response gets its own copy, taken while the lock holds that
		// Release off.
		return bytes.Clone(r.buf[off : off+n]), nil
	}
	return r.buf[off : off+n], nil
}
