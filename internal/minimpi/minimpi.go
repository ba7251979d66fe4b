// Package minimpi is the static "MPI" comparator used throughout the
// evaluation. It implements the same communicator abstraction as MoNA
// (internal/comm.Communicator) over direct in-memory delivery, but with
// MPI's defining restriction, the one the Colza paper works around: the
// world is created once, with a fixed size, and can never grow. Splitting
// (MPI_Comm_split) is supported because the Damaris baseline dedicates
// ranks by splitting MPI_COMM_WORLD.
//
// In the pipeline experiments (Figs. 5-10) this package plays the role of
// Cray-mpich/OpenMPI-backed VTK/IceT; in the virtual-time communication
// benchmarks (Tables I-II) the protocol differences between vendor MPI and
// OpenMPI are modeled separately in internal/vstack.
package minimpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

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

// world is the shared state behind all communicators derived from one
// World call: a table of matching queues keyed by (context, rank).
type world struct {
	mu     sync.Mutex
	cond   *sync.Cond
	tables map[uint64][]*comm.MatchQueue
	dead   bool
}

func newWorld() *world {
	w := &world{tables: make(map[uint64][]*comm.MatchQueue)}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// register installs rank's queue in the context table (created on first
// registration with the group size).
func (w *world) register(ctx uint64, size, rank int) *comm.MatchQueue {
	w.mu.Lock()
	defer w.mu.Unlock()
	tbl, ok := w.tables[ctx]
	if !ok {
		tbl = make([]*comm.MatchQueue, size)
		w.tables[ctx] = tbl
	}
	q := comm.NewMatchQueue()
	tbl[rank] = q
	w.cond.Broadcast()
	return q
}

// queueOf blocks until the destination rank has registered in the context
// (it will: all members enter Split/World together) and returns its queue.
func (w *world) queueOf(ctx uint64, rank int) (*comm.MatchQueue, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.dead {
			return nil, ErrFinalized
		}
		if tbl, ok := w.tables[ctx]; ok && rank < len(tbl) && tbl[rank] != nil {
			return tbl[rank], nil
		}
		w.cond.Wait()
	}
}

func (w *world) finalize() {
	w.mu.Lock()
	if w.dead {
		w.mu.Unlock()
		return
	}
	w.dead = true
	tables := w.tables
	w.tables = map[uint64][]*comm.MatchQueue{}
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, tbl := range tables {
		for _, q := range tbl {
			if q != nil {
				q.Destroy(ErrFinalized)
			}
		}
	}
}

// Comm is one rank's view of a communicator.
type Comm struct {
	w      *world
	ctx    uint64
	rank   int
	size   int
	q      *comm.MatchQueue
	splits int
}

var _ comm.Communicator = (*Comm)(nil)

// World creates a fixed-size world of n ranks and returns one communicator
// per rank. This is the one-shot, static MPI_Init: there is no way to add
// ranks afterwards.
func World(n int) []*Comm {
	if n < 1 {
		n = 1
	}
	w := newWorld()
	out := make([]*Comm, n)
	for r := 0; r < n; r++ {
		out[r] = &Comm{
			w:    w,
			ctx:  0,
			rank: r,
			size: n,
			q:    w.register(0, n, r),
		}
	}
	return out
}

// Finalize tears down the whole world; every blocked operation fails.
// Calling it on any derived communicator finalizes all of them.
func (c *Comm) Finalize() { c.w.finalize() }

// Rank returns the caller's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

// Send delivers data to rank dst under tag. The payload is copied, so the
// caller may reuse its buffer immediately.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= c.size {
		return fmt.Errorf("%w: %d of %d", ErrRank, dst, c.size)
	}
	q, err := c.w.queueOf(c.ctx, dst)
	if err != nil {
		return err
	}
	q.Push(comm.Msg{Src: c.rank, Tag: tag, Data: append([]byte(nil), data...)})
	return nil
}

// Recv blocks for a message from rank src under tag.
func (c *Comm) Recv(src, tag int) ([]byte, error) {
	if src < 0 || src >= c.size {
		return nil, fmt.Errorf("%w: %d of %d", ErrRank, src, c.size)
	}
	return c.q.Recv(src, tag)
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

// splitTag is a tag far outside application ranges, reserved for Split's
// internal allgather.
const splitTag = 1 << 28

// Split partitions the communicator like MPI_Comm_split: ranks passing the
// same color form a new communicator, ordered by (key, old rank). All
// members must call Split collectively (the same number of times). This is
// the mechanism Damaris uses to dedicate cores/nodes out of
// MPI_COMM_WORLD — and the paper's point is that doing so bakes the
// partition in at startup, unlike Colza's elastic groups.
func (c *Comm) Split(color, key int) (*Comm, error) {
	gen := c.splits
	c.splits++
	var mine [12]byte
	binary.LittleEndian.PutUint32(mine[0:], uint32(int32(color)))
	binary.LittleEndian.PutUint32(mine[4:], uint32(int32(key)))
	binary.LittleEndian.PutUint32(mine[8:], uint32(int32(c.rank)))
	all, err := c.AllGather(splitTag+gen*2, mine[:])
	if err != nil {
		return nil, err
	}
	type member struct{ color, key, rank int }
	var grp []member
	for _, raw := range all {
		if len(raw) != 12 {
			return nil, fmt.Errorf("minimpi: malformed split record")
		}
		m := member{
			color: int(int32(binary.LittleEndian.Uint32(raw[0:]))),
			key:   int(int32(binary.LittleEndian.Uint32(raw[4:]))),
			rank:  int(int32(binary.LittleEndian.Uint32(raw[8:]))),
		}
		if m.color == color {
			grp = append(grp, m)
		}
	}
	sort.Slice(grp, func(i, j int) bool {
		if grp[i].key != grp[j].key {
			return grp[i].key < grp[j].key
		}
		return grp[i].rank < grp[j].rank
	})
	newRank := -1
	for idx, m := range grp {
		if m.rank == c.rank {
			newRank = idx
			break
		}
	}
	if newRank < 0 {
		return nil, fmt.Errorf("minimpi: split lost its caller")
	}
	h := fnv.New64a()
	var seedBuf [20]byte
	binary.LittleEndian.PutUint64(seedBuf[0:], c.ctx)
	binary.LittleEndian.PutUint32(seedBuf[8:], uint32(int32(gen)))
	binary.LittleEndian.PutUint32(seedBuf[12:], uint32(int32(color)))
	binary.LittleEndian.PutUint32(seedBuf[16:], 0x5EED)
	h.Write(seedBuf[:])
	ctx := h.Sum64()
	if ctx == 0 {
		ctx = 1
	}
	sub := &Comm{
		w:    c.w,
		ctx:  ctx,
		rank: newRank,
		size: len(grp),
		q:    c.w.register(ctx, len(grp), newRank),
	}
	return sub, nil
}
