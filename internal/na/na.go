// Package na is the network abstraction layer of the stack, modeled on NA,
// the messaging layer underneath Mercury in the Mochi suite. It provides
// addressed, connectionless message endpoints. Two transports are
// implemented: an in-process transport (many simulated "processes" inside
// one OS process, with crashes and a seeded FaultPlan's drops, delays and
// cut links for fault injection) and a
// stream-socket transport for actually-distributed deployments — TCP, plus,
// on a dual endpoint, a unix socket and a shared-memory bulk arena for
// colocated peers. Everything above — RPC (internal/mercury), collectives
// (internal/mona), membership (internal/ssg) — is written against the
// Endpoint interface and cannot tell the transports apart.
package na

import (
	"errors"
	"sync"
	"sync/atomic"

	"colza/internal/obs"
)

// Common errors returned by endpoints.
var (
	// ErrClosed indicates the endpoint was closed.
	ErrClosed = errors.New("na: endpoint closed")
	// ErrNoRoute indicates the destination address is not known to the
	// transport (it never existed). Messages to addresses that existed but
	// whose endpoint has shut down are dropped silently, like datagrams to
	// a crashed host, so failure detectors exercise their timeout paths.
	ErrNoRoute = errors.New("na: no route to address")
	// ErrTooLarge indicates a message above the transport frame limit.
	ErrTooLarge = errors.New("na: message too large")
)

// Endpoint is an addressed mailbox: it can send a message to any address on
// the same transport and receive messages addressed to it. Send never
// blocks on the receiver; Recv blocks until a message arrives or the
// endpoint closes. Endpoints are safe for concurrent use; the payload
// returned by Recv is owned by the caller, who may bufpool.Put it when done
// with it (the stream endpoint reads frames into pooled buffers; the
// in-process one hands out an exact-size private copy).
type Endpoint interface {
	Addr() string
	Send(to string, data []byte) error
	// SendGather sends one message handed over as a head and a body
	// (writev on a socket), sparing the caller the copy that would join
	// them. The receiver sees a single message, head then body; everything
	// else is as Send, which is SendGather(to, nil, data). The endpoint is
	// done with both slices when it returns.
	SendGather(to string, head, body []byte) error
	Recv() (from string, data []byte, err error)
	// SetObserver routes the endpoint's transport metrics (receive-queue
	// depth, route and arena counters) into r; nil is ignored. The RPC
	// layer forwards its own SetObserver here, so per-server registries
	// see their endpoint's numbers without extra wiring.
	SetObserver(r *obs.Registry)
	Close() error
}

// LocalBulk is the capability interface behind cross-process zero-copy
// bulk handoff (a dual endpoint implements it; see arena.go). An
// endpoint that supports it lets the RPC layer publish exposed bulk
// regions in a shared-memory segment and lets same-host pullers read the
// bytes where they lie, in the exposer's segment — no chunked
// request/response protocol, no kernel socket copies, no copy at all.
//
// Every method is best-effort: a false return means the caller must fall
// back to the ordinary pull path, which stays authoritative for
// use-after-release errors. A region lives in segment memory the endpoint
// owns: ExposeLocal snapshots buf into it (so the §7 ownership rule —
// buffer unchanged until Release — holds even against borrows that race a
// release), and ReserveLocal hands the caller a span of it to fill in place
// and publish with PublishLocal. A reserved span is the caller's to write
// until its ReleaseLocal, even across the endpoint's Close, and not a
// moment longer: the release may recycle or unmap it — except that a span
// a borrower still pins is not recycled before the borrower is done.
type LocalBulk interface {
	// ExposeLocal publishes buf under the bulk registration id. False
	// means the region was not published (no segment, table collision,
	// arena full) and pulls will use the RPC path.
	ExposeLocal(id uint64, buf []byte) bool
	// ReserveLocal takes the export-table slot of id and n bytes of the
	// segment and returns them writable but unpublished: a borrow of id
	// misses until PublishLocal. nil means nothing was reserved, for the
	// reasons ExposeLocal declines, or because the endpoint is closing.
	ReserveLocal(id uint64, n int) []byte
	// PublishLocal publishes the first n bytes of id's reservation, as
	// they are now. False means nothing was published (no such
	// reservation, n outside it, the endpoint closing).
	PublishLocal(id uint64, n int) bool
	// ReleaseLocal withdraws a region, published or only reserved. Safe to
	// call for ids that were never published.
	ReleaseLocal(id uint64)
	// BorrowLocal pins the first n bytes of the region id published by the
	// endpoint at ownerAddr and returns them where they lie, read-only.
	// The view stays valid until done, which the caller must call exactly
	// once: the owner's release cannot recycle the span under it, nor this
	// endpoint's Close unmap it. It is still memory another process can
	// write, so a reader validates what it copies, not the view. ok=false
	// means the caller must fall back to the RPC pull path.
	BorrowLocal(ownerAddr string, id uint64, n int) (view []byte, done func(), ok bool)
}

// packet is one in-flight message.
type packet struct {
	from string
	data []byte
}

// pktQueue is an unbounded FIFO of packets with blocking receive. An
// unbounded queue mirrors NA semantics (sends complete locally) and rules
// out transport-induced deadlocks in collective algorithms. Because it is
// unbounded, growth is a blind spot: a receiver that stops draining (stuck
// progress loop, leaked endpoint) accumulates memory silently. The depth
// gauge closes that gap — endpoints wired to a registry report their
// instantaneous depth and high-water mark as na.queue.depth, and the
// goroutine-leak gates assert it drains back to zero at teardown.
type pktQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []packet
	closed bool
	depth  atomic.Pointer[obs.Gauge]
}

func newPktQueue() *pktQueue {
	q := &pktQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// setDepthGauge routes the queue's depth into g (nil detaches). The gauge
// is seeded with the current depth so a mid-life attach stays balanced.
func (q *pktQueue) setDepthGauge(g *obs.Gauge) {
	q.mu.Lock()
	q.depth.Store(g)
	if g != nil {
		g.Set(int64(len(q.items)))
	}
	q.mu.Unlock()
}

func (q *pktQueue) push(p packet) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, p)
	if g := q.depth.Load(); g != nil {
		g.Add(1)
	}
	q.cond.Signal()
	return true
}

func (q *pktQueue) pop() (packet, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return packet{}, ErrClosed
	}
	p := q.items[0]
	q.items = q.items[1:]
	if g := q.depth.Load(); g != nil {
		g.Add(-1)
	}
	return p, nil
}

func (q *pktQueue) close() {
	q.mu.Lock()
	q.closed = true
	if g := q.depth.Load(); g != nil {
		g.Add(-int64(len(q.items)))
	}
	q.items = nil
	q.cond.Broadcast()
	q.mu.Unlock()
}
