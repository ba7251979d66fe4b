// Package na is the network abstraction layer of the stack, modeled on NA,
// the messaging layer underneath Mercury in the Mochi suite. It provides
// addressed, connectionless message endpoints. Two transports are
// implemented: an in-process transport (many simulated "processes" inside
// one OS process, with optional fault injection and link delays) and a
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
// returned by Recv is owned by the caller.
type Endpoint interface {
	Addr() string
	Send(to string, data []byte) error
	Recv() (from string, data []byte, err error)
	Close() error
}

// Observable is implemented by endpoints that can report transport metrics
// (receive-queue depth, frame counters) into a registry. The RPC layer
// forwards its own SetObserver here so per-server registries see their
// endpoint's numbers without extra wiring.
type Observable interface {
	SetObserver(r *obs.Registry)
}

// LocalBulk is the capability interface behind cross-process zero-copy
// bulk handoff (a dual endpoint implements it; see arena.go). An
// endpoint that supports it lets the RPC layer publish exposed bulk
// regions in a shared-memory segment and lets same-host pullers copy the
// bytes straight out of the exposer's segment — no chunked
// request/response protocol, no kernel socket copies.
//
// Every method is best-effort: a false/not-done return means the caller
// must fall back to the ordinary pull path, which stays authoritative for
// use-after-release errors. ExposeLocal snapshots buf (the segment holds
// its own copy), so the §7 ownership rule — buffer unchanged until
// Release — is preserved even against pulls that race a release.
type LocalBulk interface {
	// ExposeLocal publishes buf under the bulk registration id. False
	// means the region was not published (no segment, table collision,
	// arena full) and pulls will use the RPC path.
	ExposeLocal(id uint64, buf []byte) bool
	// ReleaseLocal withdraws a published region. Safe to call for ids
	// that were never published.
	ReleaseLocal(id uint64)
	// PullLocal copies len(dst) bytes starting at off of the region id
	// published by the endpoint at ownerAddr. done=false means the
	// caller must fall back to the RPC pull path; done=true with nil err
	// means dst holds the bytes.
	PullLocal(ownerAddr string, id uint64, off int, dst []byte) (done bool, err error)
}

// GatherSender is implemented by endpoints that can send one message handed
// over as a head and a body (writev on a socket), sparing the caller the
// copy that would join them. The receiver sees a single message, head then
// body; everything else is as Send.
type GatherSender interface {
	SendGather(to string, head, body []byte) error
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
