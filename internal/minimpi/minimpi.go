// Package minimpi is the static "MPI" comparator used throughout the
// evaluation. It implements the same communicator abstraction as MoNA
// (internal/comm.Communicator) over direct in-memory delivery, but with
// MPI's defining restriction, the one the Colza paper works around: the
// world is created once, with a fixed size, and can never grow or shrink.
//
// In the pipeline experiments (Figs. 5-10) this package plays the role of
// Cray-mpich/OpenMPI-backed VTK/IceT; in the virtual-time communication
// benchmarks (Tables I-II) the protocol differences between vendor MPI and
// OpenMPI are modeled separately in internal/vstack.
package minimpi

import (
	"errors"
	"fmt"
	"sync/atomic"

	"colza/internal/collectives"
	"colza/internal/comm"
)

// Errors returned by mini-MPI operations.
var (
	// ErrRank indicates an out-of-range peer rank.
	ErrRank = errors.New("minimpi: rank out of range")
	// ErrFinalized indicates the world has been finalized.
	ErrFinalized = errors.New("minimpi: world finalized")
)

// world is the shared state behind the communicators of one World call:
// one matching queue per rank, fixed at creation.
type world struct {
	queues []*comm.MatchQueue
	dead   atomic.Bool
}

func (w *world) finalize() {
	if w.dead.Swap(true) {
		return
	}
	for _, q := range w.queues {
		q.Destroy(ErrFinalized)
	}
}

// Comm is one rank's view of the world.
type Comm struct {
	w    *world
	rank int
}

var _ comm.Communicator = (*Comm)(nil)

// World creates a fixed-size world of n ranks and returns one communicator
// per rank. This is the one-shot, static MPI_Init: there is no way to add
// ranks afterwards.
func World(n int) []*Comm {
	if n < 1 {
		n = 1
	}
	w := &world{queues: make([]*comm.MatchQueue, n)}
	out := make([]*Comm, n)
	for r := range out {
		w.queues[r] = comm.NewMatchQueue()
		out[r] = &Comm{w: w, rank: r}
	}
	return out
}

// Finalize tears down the whole world; every blocked operation fails.
// Calling it on any rank's communicator finalizes all of them.
func (c *Comm) Finalize() { c.w.finalize() }

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.w.queues) }

// Send delivers data to rank dst under tag. The payload is copied, so the
// caller may reuse its buffer immediately.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.Size() {
		return fmt.Errorf("%w: %d of %d", ErrRank, dst, c.Size())
	}
	if c.w.dead.Load() {
		return ErrFinalized
	}
	c.w.queues[dst].Push(comm.Msg{Src: c.rank, Tag: tag, Data: append([]byte(nil), data...)})
	return nil
}

// Recv blocks for a message from rank src under tag.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	if src < 0 || src >= c.Size() {
		return nil, fmt.Errorf("%w: %d of %d", ErrRank, src, c.Size())
	}
	return c.w.queues[c.rank].Recv(src, tag)
}

// Bcast distributes data from root.
func (c *Comm) Bcast(root, tag int, data []byte) ([]byte, error) {
	return collectives.Bcast(c, root, tag, data, collectives.DefaultAlgorithm)
}

// Reduce folds contributions at root.
func (c *Comm) Reduce(root, tag int, data []byte, op collectives.Op) ([]byte, error) {
	return collectives.Reduce(c, root, tag, data, op, collectives.DefaultAlgorithm)
}

// AllReduce folds contributions everywhere.
func (c *Comm) AllReduce(tag int, data []byte, op collectives.Op) ([]byte, error) {
	return collectives.AllReduce(c, tag, data, op, collectives.DefaultAlgorithm)
}

// Gather collects contributions at root.
func (c *Comm) Gather(root, tag int, data []byte) ([][]byte, error) {
	return collectives.Gather(c, root, tag, data)
}

// AllGather collects contributions everywhere.
func (c *Comm) AllGather(tag int, data []byte) ([][]byte, error) {
	return collectives.AllGather(c, tag, data, collectives.DefaultAlgorithm)
}

// Scatter distributes parts from root.
func (c *Comm) Scatter(root, tag int, parts [][]byte) ([]byte, error) {
	return collectives.Scatter(c, root, tag, parts)
}

// Barrier blocks until every rank enters.
func (c *Comm) Barrier(tag int) error {
	return collectives.Barrier(c, tag)
}
