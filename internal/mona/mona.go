// Package mona is the Go analog of MoNA, the custom collective
// communication library the Colza paper built on top of Argobots and NA to
// replace MPI inside ParaView, VTK, and IceT. Its defining properties,
// preserved here, are:
//
//   - No world communicator. A communicator is created on demand from an
//     explicit, ordered list of addresses (obtained from the membership
//     service), so groups can grow and shrink between iterations.
//   - Progress yields. Blocking operations park a goroutine, not a core.
//   - Collectives use a typical tree-based algorithm (the binomial tree of
//     internal/collectives).
//   - Message buffers are cached and reused, which is why MoNA outperforms
//     raw NA in the paper's Table I.
//
// A staging server has one endpoint: its instance (Attach) sends and
// receives as one-way frames of the server's RPC class, so a crash, a cut
// link or a shared-memory route is the same for its collectives as for its
// RPCs.
//
// Messages may arrive for a communicator the local process has not created
// yet (normal during elastic reconfiguration); they are parked in an orphan
// queue and drained when the communicator appears. A message for a
// communicator this process destroyed is dropped instead, and so is one
// that would take the parked bytes past maxOrphanBytes: a frame from a
// rank still sending after its iteration ended, or a stray frame on the
// endpoint, must not stay for the life of the process.
package mona

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"colza/internal/collectives"
	"colza/internal/comm"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// Errors returned by communicator operations.
var (
	// ErrDestroyed indicates the communicator was destroyed while an
	// operation was blocked on it.
	ErrDestroyed = errors.New("mona: communicator destroyed")
	// ErrNotMember indicates the local address is missing from the member
	// list given to CreateComm.
	ErrNotMember = errors.New("mona: local address not in member list")
	// ErrRank indicates an out-of-range peer rank.
	ErrRank = errors.New("mona: rank out of range")
	// ErrExists indicates a communicator id is already in use.
	ErrExists = errors.New("mona: communicator id already exists")
)

// header layout: commID u64 | srcRank i32 | tag i32.
const headerLen = 16

// The orphan queue's bounds. Parked frames are charged their bytes plus
// orphanFrameCost for the entry that holds them, so a flood of empty frames
// is bounded too; an instance remembers the last destroyedIDs communicators
// it destroyed, and an older id's late frames fall under the byte bound.
const (
	maxOrphanBytes  = 32 << 20
	orphanFrameCost = 64
	destroyedIDs    = 256
)

// Instance is a MoNA instance (the analog of mona_instance_t): its frames
// ride the one-way frames of an RPC class, whose progress loop hands every
// one it receives to route. One instance can host many communicators.
type Instance struct {
	class *mercury.Class
	owned bool // NewInstance made class, so Finalize closes it

	mu          sync.Mutex
	comms       map[uint64]*Comm
	orphans     map[uint64][]comm.Msg
	orphanBytes int
	destroyed   []uint64 // oldest first, at most destroyedIDs
	closed      bool

	// Frames dropped instead of parked: for a destroyed communicator, and
	// past maxOrphanBytes.
	droppedLate, droppedFull *obs.Counter
}

// Attach starts an instance on c, a server's RPC class: its address is c's,
// and its frames share c's endpoint with the RPCs. Finalize detaches it and
// leaves c serving.
func Attach(c *mercury.Class) *Instance {
	i := &Instance{
		class:   c,
		comms:   make(map[uint64]*Comm),
		orphans: make(map[uint64][]comm.Msg),

		droppedLate: obs.Default().Counter("mona.orphans.dropped", "reason", "destroyed"),
		droppedFull: obs.Default().Counter("mona.orphans.dropped", "reason", "full"),
	}
	c.SetFrameHandler(i.route)
	return i
}

// NewInstance starts an instance on a bare endpoint: ep becomes the
// endpoint of an RPC class of the instance's own, which Finalize closes.
func NewInstance(ep na.Endpoint) *Instance {
	i := Attach(mercury.New(ep))
	i.owned = true
	return i
}

// Addr returns the instance's address, to be shared with peers when
// assembling communicators.
func (i *Instance) Addr() string { return i.class.Addr() }

// route delivers one received frame to its communicator's matching queue,
// or parks it, with frame, the pooled buffer data lies in, riding along
// for the consumer to hand back (Comm.Release); a frame it drops goes back
// at once. A non-nil err means no frame follows: every communicator is
// torn down.
func (i *Instance) route(data, frame []byte, err error) {
	if err != nil {
		i.mu.Lock()
		for _, c := range i.comms {
			c.mq.Destroy(ErrDestroyed)
		}
		i.comms = map[uint64]*Comm{}
		i.mu.Unlock()
		return
	}
	if len(data) < headerLen {
		mercury.Recycle(frame)
		return
	}
	id := binary.LittleEndian.Uint64(data)
	src := int(int32(binary.LittleEndian.Uint32(data[8:])))
	tag := int(int32(binary.LittleEndian.Uint32(data[12:])))
	m := comm.Msg{Src: src, Tag: tag, Data: data[headerLen:], Frame: frame}
	i.mu.Lock()
	c, ok := i.comms[id]
	if !ok {
		i.park(id, m)
		i.mu.Unlock()
		return
	}
	i.mu.Unlock()
	c.mq.Push(m)
}

// park holds m for communicator id, which this instance has not created,
// unless id was destroyed here or the orphan queue is full (then m's frame
// goes back). i.mu is held.
func (i *Instance) park(id uint64, m comm.Msg) {
	switch {
	case slices.Contains(i.destroyed, id):
		i.droppedLate.Inc()
		mercury.Recycle(m.Frame)
	case i.orphanBytes+orphanCost(m) > maxOrphanBytes:
		i.droppedFull.Inc()
		mercury.Recycle(m.Frame)
	default:
		i.orphans[id] = append(i.orphans[id], m)
		i.orphanBytes += orphanCost(m)
	}
}

// unpark removes and returns the frames parked for id. i.mu is held.
func (i *Instance) unpark(id uint64) []comm.Msg {
	stash := i.orphans[id]
	delete(i.orphans, id)
	for _, m := range stash {
		i.orphanBytes -= orphanCost(m)
	}
	return stash
}

func orphanCost(m comm.Msg) int { return len(m.Data) + orphanFrameCost }

// CreateComm assembles a communicator identified by id over the given
// ordered address list, which must contain this instance's address. All
// members must use the same id and the same ordering (Colza derives both
// from the activate-time 2PC). Orphaned messages already received for the
// id are delivered.
func (i *Instance) CreateComm(id uint64, addrs []string) (*Comm, error) {
	rank := -1
	for r, a := range addrs {
		if a == i.Addr() {
			rank = r
			break
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotMember, i.Addr())
	}
	c := &Comm{
		inst:  i,
		id:    id,
		rank:  rank,
		addrs: append([]string(nil), addrs...),
		mq:    comm.NewMatchQueue(),
	}
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return nil, na.ErrClosed
	}
	if _, dup := i.comms[id]; dup {
		i.mu.Unlock()
		return nil, fmt.Errorf("%w: %d", ErrExists, id)
	}
	i.comms[id] = c
	i.destroyed = slices.DeleteFunc(i.destroyed, func(d uint64) bool { return d == id })
	stash := i.unpark(id)
	i.mu.Unlock()
	for _, m := range stash {
		c.mq.Push(m)
	}
	return c, nil
}

// DestroyComm releases the communicator; blocked receivers fail with
// ErrDestroyed, and frames that arrive for its id until it is created again
// are dropped.
func (i *Instance) DestroyComm(c *Comm) {
	i.mu.Lock()
	if i.comms[c.id] == c {
		delete(i.comms, c.id)
	}
	for _, m := range i.unpark(c.id) {
		mercury.Recycle(m.Frame)
	}
	if !slices.Contains(i.destroyed, c.id) {
		if len(i.destroyed) == destroyedIDs {
			i.destroyed = append(i.destroyed[:0], i.destroyed[1:]...)
		}
		i.destroyed = append(i.destroyed, c.id)
	}
	i.mu.Unlock()
	c.mq.Destroy(ErrDestroyed)
}

// Finalize tears down all communicators and stops receiving; an instance
// of NewInstance also closes its endpoint.
func (i *Instance) Finalize() {
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return
	}
	i.closed = true
	i.mu.Unlock()
	if i.owned {
		i.class.Close() // its progress loop ends with route(nil, err)
		return
	}
	i.class.SetFrameHandler(nil)
	i.route(nil, nil, na.ErrClosed)
}

// Comm is a communicator: an immutable, ordered member group. It satisfies
// collectives.PT2PT, and exposes the MPI-like operations the Colza
// pipelines need (the analogs of mona_comm_*).
type Comm struct {
	inst  *Instance
	id    uint64
	rank  int
	addrs []string
	mq    *comm.MatchQueue
}

// Comm implements the shared communicator abstraction injected into the
// visualization stack, and lends its received frames to the collectives.
var (
	_ comm.Communicator  = (*Comm)(nil)
	_ collectives.Lender = (*Comm)(nil)
)

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.addrs) }

// Send transmits data to rank dst with the given tag. It completes locally
// (buffered at the receiver). data leaves as it lies, gathered behind the
// frame's header; the class is done with it when Send returns.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(c.addrs) {
		return fmt.Errorf("%w: %d of %d", ErrRank, dst, len(c.addrs))
	}
	var head [headerLen]byte
	binary.LittleEndian.PutUint64(head[:], c.id)
	binary.LittleEndian.PutUint32(head[8:], uint32(int32(c.rank)))
	binary.LittleEndian.PutUint32(head[12:], uint32(int32(tag)))
	return c.inst.class.SendFrame(c.addrs[dst], head[:], data)
}

// Recv blocks until a message from rank src with the given tag arrives.
// The payload is the caller's to keep.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	data, _, err := c.RecvFrame(src, tag)
	return data, err
}

// RecvFrame is Recv lending the frame the payload lies in, which the
// caller hands back with Release once done with the payload
// (collectives.Lender).
func (c *Comm) RecvFrame(src, tag int) (data, frame []byte, err error) {
	if src < 0 || src >= len(c.addrs) {
		return nil, nil, fmt.Errorf("%w: %d of %d", ErrRank, src, len(c.addrs))
	}
	m, err := c.mq.RecvMsg(src, tag)
	return m.Data, m.Frame, err
}

// Release takes back a frame RecvFrame lent; the caller must not touch it,
// or the payload in it, again.
func (c *Comm) Release(frame []byte) { mercury.Recycle(frame) }

// Reduce folds contributions at root (see collectives.Reduce).
func (c *Comm) Reduce(root, tag int, data []byte, op collectives.Op) ([]byte, error) {
	return collectives.Reduce(c, root, tag, data, op, collectives.DefaultAlgorithm)
}

// AllReduce folds contributions and distributes the result everywhere.
func (c *Comm) AllReduce(tag int, data []byte, op collectives.Op) ([]byte, error) {
	return collectives.AllReduce(c, tag, data, op, collectives.DefaultAlgorithm)
}
