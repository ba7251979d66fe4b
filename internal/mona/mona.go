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
// Messages may arrive for a communicator the local process has not created
// yet (normal during elastic reconfiguration); they are parked in an orphan
// queue and drained when the communicator appears. A message for a
// communicator this process destroyed is dropped instead, and so is one
// that would take the parked bytes past maxOrphanBytes: a frame from a
// rank still sending after its iteration ended, or a stray frame on the
// listener, must not stay for the life of the process.
package mona

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"colza/internal/bufpool"

	"colza/internal/collectives"
	"colza/internal/comm"
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

// Instance is a MoNA progress loop bound to one endpoint (the analog of
// mona_instance_t). One instance can host many communicators.
type Instance struct {
	ep na.Endpoint

	mu          sync.Mutex
	comms       map[uint64]*Comm
	orphans     map[uint64][]comm.Msg
	orphanBytes int
	destroyed   []uint64 // oldest first, at most destroyedIDs
	closed      bool

	// Frames dropped instead of parked: for a destroyed communicator, and
	// past maxOrphanBytes.
	droppedLate, droppedFull *obs.Counter

	done chan struct{}
}

// NewInstance starts a progress loop on ep.
func NewInstance(ep na.Endpoint) *Instance {
	i := &Instance{
		ep:      ep,
		comms:   make(map[uint64]*Comm),
		orphans: make(map[uint64][]comm.Msg),
		done:    make(chan struct{}),

		droppedLate: obs.Default().Counter("mona.orphans.dropped", "reason", "destroyed"),
		droppedFull: obs.Default().Counter("mona.orphans.dropped", "reason", "full"),
	}
	go i.progress()
	return i
}

// Addr returns the instance's address, to be shared with peers when
// assembling communicators.
func (i *Instance) Addr() string { return i.ep.Addr() }

// progress routes incoming messages to communicators' matching queues.
func (i *Instance) progress() {
	defer close(i.done)
	for {
		_, data, err := i.ep.Recv()
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
			continue
		}
		id := binary.LittleEndian.Uint64(data)
		src := int(int32(binary.LittleEndian.Uint32(data[8:])))
		tag := int(int32(binary.LittleEndian.Uint32(data[12:])))
		m := comm.Msg{Src: src, Tag: tag, Data: data[headerLen:]}
		i.mu.Lock()
		c, ok := i.comms[id]
		if !ok {
			i.park(id, m)
			i.mu.Unlock()
			continue
		}
		i.mu.Unlock()
		c.mq.Push(m)
	}
}

// park holds m for communicator id, which this instance has not created,
// unless id was destroyed here or the orphan queue is full. i.mu is held.
func (i *Instance) park(id uint64, m comm.Msg) {
	switch {
	case slices.Contains(i.destroyed, id):
		i.droppedLate.Inc()
	case i.orphanBytes+orphanCost(m) > maxOrphanBytes:
		i.droppedFull.Inc()
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
	i.unpark(c.id)
	if !slices.Contains(i.destroyed, c.id) {
		if len(i.destroyed) == destroyedIDs {
			i.destroyed = append(i.destroyed[:0], i.destroyed[1:]...)
		}
		i.destroyed = append(i.destroyed, c.id)
	}
	i.mu.Unlock()
	c.mq.Destroy(ErrDestroyed)
}

// Finalize closes the endpoint and tears down all communicators.
func (i *Instance) Finalize() {
	i.mu.Lock()
	if i.closed {
		i.mu.Unlock()
		return
	}
	i.closed = true
	i.mu.Unlock()
	i.ep.Close()
	<-i.done
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
// visualization stack.
var _ comm.Communicator = (*Comm)(nil)

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.addrs) }

// Send transmits data to rank dst with the given tag. It completes locally
// (buffered at the receiver). The wire frame is built in a size-classed
// pooled buffer and recycled as soon as the endpoint is done with it (na
// Send does not retain the slice past return).
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(c.addrs) {
		return fmt.Errorf("%w: %d of %d", ErrRank, dst, len(c.addrs))
	}
	buf := bufpool.Get(headerLen + len(data))
	binary.LittleEndian.PutUint64(buf, c.id)
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(c.rank)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(int32(tag)))
	copy(buf[headerLen:], data)
	err := c.inst.ep.Send(c.addrs[dst], buf)
	bufpool.Put(buf)
	return err
}

// Recv blocks until a message from rank src with the given tag arrives.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	if src < 0 || src >= len(c.addrs) {
		return nil, fmt.Errorf("%w: %d of %d", ErrRank, src, len(c.addrs))
	}
	return c.mq.Recv(src, tag)
}

// Bcast distributes data from root (see collectives.Bcast).
func (c *Comm) Bcast(root, tag int, data []byte) ([]byte, error) {
	return collectives.Bcast(c, root, tag, data, collectives.DefaultAlgorithm)
}

// Reduce folds contributions at root (see collectives.Reduce).
func (c *Comm) Reduce(root, tag int, data []byte, op collectives.Op) ([]byte, error) {
	return collectives.Reduce(c, root, tag, data, op, collectives.DefaultAlgorithm)
}

// AllReduce folds contributions and distributes the result everywhere.
func (c *Comm) AllReduce(tag int, data []byte, op collectives.Op) ([]byte, error) {
	return collectives.AllReduce(c, tag, data, op, collectives.DefaultAlgorithm)
}

// Gather collects each rank's data at root.
func (c *Comm) Gather(root, tag int, data []byte) ([][]byte, error) {
	return collectives.Gather(c, root, tag, data)
}

// AllGather collects each rank's data everywhere.
func (c *Comm) AllGather(tag int, data []byte) ([][]byte, error) {
	return collectives.AllGather(c, tag, data, collectives.DefaultAlgorithm)
}

// Scatter distributes parts from root.
func (c *Comm) Scatter(root, tag int, parts [][]byte) ([]byte, error) {
	return collectives.Scatter(c, root, tag, parts)
}

// Barrier blocks until every member has entered it.
func (c *Comm) Barrier(tag int) error {
	return collectives.Barrier(c, tag)
}
