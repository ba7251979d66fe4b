// Package comm defines the communicator abstraction shared by the MoNA
// (elastic) and mini-MPI (static) communication layers, and the MPI-style
// message matching queue both implement it with.
//
// This interface is the seam the paper's dependency injection runs
// through: VTK's vtkMultiProcessController/vtkCommunicator and IceT's
// IceTCommunicator abstract the operations the vis stack calls, which is
// what allowed the authors to swap MPI for MoNA without modifying VTK or
// IceT. Communicator carries exactly the operations our stack calls —
// point-to-point Send/Recv (sim's halo exchange), Reduce (icet's
// composite) and AllReduce (catalyst's global bounds and ranges) — and
// internal/vtk and internal/icet are written against it
// without naming a concrete transport. Other collectives run over any
// Communicator through internal/collectives.
package comm

import (
	"sync"

	"colza/internal/collectives"
)

// Communicator is the point-to-point plus collective surface the
// visualization stack needs. Implementations: mona.Comm (elastic) and
// minimpi.Comm (static).
type Communicator interface {
	Rank() int
	Size() int
	Send(dst, tag int, data []byte) error
	Recv(src, tag int) ([]byte, error)
	Reduce(root, tag int, data []byte, op collectives.Op) ([]byte, error)
	AllReduce(tag int, data []byte, op collectives.Op) ([]byte, error)
}

// Msg is one matched message. Frame, when not nil, is the pooled buffer
// Data lies in, lent to whoever receives Data until it goes back to the
// communicator that delivered it (collectives.Lender).
type Msg struct {
	Src, Tag int
	Data     []byte
	Frame    []byte
}

// MatchQueue buffers incoming messages and matches Recv(src, tag) calls,
// MPI-style. Safe for concurrent use.
type MatchQueue struct {
	mu        sync.Mutex
	cond      *sync.Cond
	items     []Msg
	destroyed bool
	err       error
}

// NewMatchQueue creates an empty queue.
func NewMatchQueue() *MatchQueue {
	q := &MatchQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push appends a message and wakes matching receivers. Pushes after
// Destroy are dropped.
func (q *MatchQueue) Push(m Msg) {
	q.mu.Lock()
	if q.destroyed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, m)
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Recv blocks until a message with the given source and tag is available,
// or the queue is destroyed (in which case it returns the destroy error).
func (q *MatchQueue) Recv(src, tag int) ([]byte, error) {
	m, err := q.RecvMsg(src, tag)
	return m.Data, err
}

// RecvMsg is Recv returning the whole message, its frame included.
func (q *MatchQueue) RecvMsg(src, tag int) (Msg, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for idx, m := range q.items {
			if m.Src == src && m.Tag == tag {
				q.items = append(q.items[:idx], q.items[idx+1:]...)
				return m, nil
			}
		}
		if q.destroyed {
			return Msg{}, q.err
		}
		q.cond.Wait()
	}
}

// Destroy marks the queue dead; blocked and future Recv calls return err.
func (q *MatchQueue) Destroy(err error) {
	q.mu.Lock()
	if !q.destroyed {
		q.destroyed = true
		q.err = err
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Len reports the number of buffered messages.
func (q *MatchQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
