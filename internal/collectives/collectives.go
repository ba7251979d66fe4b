// Package collectives implements the tree-based collective communication
// algorithms used by MoNA (and by the static mini-MPI comparator) on top of
// any point-to-point substrate. The Colza paper describes MoNA's collectives
// as "typical tree-based algorithms ... taking inspiration from the MPICH
// source code"; the binomial broadcast and reduce here follow the MPICH
// formulations. Flat (linear) and k-ary variants exist both as ablations
// (DESIGN.md A1) and to model OpenMPI's collapse onto a poor algorithm for
// large messages at scale (Table II).
package collectives

import (
	"errors"
	"fmt"

	"colza/internal/bufpool"
)

// PT2PT is the point-to-point layer a collective algorithm runs over. Rank
// identifies the caller within a fixed, ordered group of Size processes.
// Send and Recv match on (peer, tag); Recv blocks until a matching message
// arrives.
type PT2PT interface {
	Rank() int
	Size() int
	Send(dst, tag int, data []byte) error
	Recv(src, tag int) ([]byte, error)
}

// Lender is a PT2PT whose received payloads lie in pooled frames it lends
// out: RecvFrame is Recv that also returns the frame data lies in (nil
// when data is the caller's outright), and Release takes that frame back
// once data is spent. The frame goes back whole, never data, a sub-slice
// the pool would file under a smaller class. A reduce releases every
// contribution it folds; a payload Recv or Bcast returns is the caller's.
type Lender interface {
	RecvFrame(src, tag int) (data, frame []byte, err error)
	Release(frame []byte)
}

// Kind selects the tree shape used by a collective.
type Kind int

const (
	// Binomial is the MPICH-style binomial tree (default).
	Binomial Kind = iota
	// Flat is the linear algorithm: the root talks to every other rank
	// directly, one at a time.
	Flat
	// KAry is a k-ary tree; K must be >= 2.
	KAry
)

func (k Kind) String() string {
	switch k {
	case Binomial:
		return "binomial"
	case Flat:
		return "flat"
	case KAry:
		return "kary"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Algorithm selects the collective algorithm variant.
type Algorithm struct {
	Kind Kind
	K    int // fan-out for KAry
}

// DefaultAlgorithm is the binomial tree used unless a caller overrides it.
var DefaultAlgorithm = Algorithm{Kind: Binomial}

var errRoot = errors.New("collectives: root out of range")

// Bcast distributes data from root to every rank. On non-root ranks the
// input data is ignored and the received payload is returned, the
// caller's to keep; on the root the input is returned unchanged.
func Bcast(p PT2PT, root, tag int, data []byte, algo Algorithm) ([]byte, error) {
	data, _, err := bcast(p, root, tag, data, algo)
	return data, err
}

// bcast is Bcast that also returns the frame a Lender lent the received
// payload in (nil on the root, and without a Lender).
func bcast(p PT2PT, root, tag int, data []byte, algo Algorithm) ([]byte, []byte, error) {
	size := p.Size()
	if root < 0 || root >= size {
		return nil, nil, errRoot
	}
	if size == 1 {
		return data, nil, nil
	}
	switch algo.Kind {
	case Flat:
		return bcastFlat(p, root, tag, data)
	case KAry:
		return bcastKAry(p, root, tag, data, algo.K)
	default:
		return bcastBinomial(p, root, tag, data)
	}
}

// recv receives from src, with the frame a Lender lent the payload in (nil
// without a Lender).
func recv(p PT2PT, src, tag int) (data, frame []byte, err error) {
	if l, ok := p.(Lender); ok {
		return l.RecvFrame(src, tag)
	}
	data, err = p.Recv(src, tag)
	return data, nil, err
}

// release hands a frame recv returned back to p.
func release(p PT2PT, frame []byte) {
	if frame != nil {
		p.(Lender).Release(frame)
	}
}

func bcastBinomial(p PT2PT, root, tag int, data []byte) ([]byte, []byte, error) {
	size, rank := p.Size(), p.Rank()
	rel := (rank - root + size) % size
	var frame []byte
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := rank - mask
			if src < 0 {
				src += size
			}
			var err error
			if data, frame, err = recv(p, src, tag); err != nil {
				return nil, nil, err
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < size {
			dst := rank + mask
			if dst >= size {
				dst -= size
			}
			if err := p.Send(dst, tag, data); err != nil {
				return nil, nil, err
			}
		}
		mask >>= 1
	}
	return data, frame, nil
}

func bcastFlat(p PT2PT, root, tag int, data []byte) ([]byte, []byte, error) {
	size, rank := p.Size(), p.Rank()
	if rank == root {
		for r := 0; r < size; r++ {
			if r == root {
				continue
			}
			if err := p.Send(r, tag, data); err != nil {
				return nil, nil, err
			}
		}
		return data, nil, nil
	}
	return recv(p, root, tag)
}

func bcastKAry(p PT2PT, root, tag int, data []byte, k int) ([]byte, []byte, error) {
	if k < 2 {
		k = 2
	}
	size, rank := p.Size(), p.Rank()
	rel := (rank - root + size) % size
	var frame []byte
	if rel != 0 {
		parent := ((rel-1)/k + root) % size
		var err error
		if data, frame, err = recv(p, parent, tag); err != nil {
			return nil, nil, err
		}
	}
	for c := 1; c <= k; c++ {
		child := rel*k + c
		if child >= size {
			break
		}
		dst := (child + root) % size
		if err := p.Send(dst, tag, data); err != nil {
			return nil, nil, err
		}
	}
	return data, frame, nil
}

// Op folds an incoming contribution into an accumulator. Implementations
// may modify acc in place and must return the folded result; acc and in are
// same-length buffers. The result must not alias in: a reduce hands in back
// to its communicator as soon as op returns.
type Op func(acc, in []byte) []byte

// Reduce folds the data contributed by every rank with op; the result is
// returned on root (other ranks return nil). The operation is assumed
// commutative and associative, as in the paper's binary-tree reduction.
// data is only read: a rank that receives folds into a private copy of it
// from bufpool, made at its first receive (fold), and a leaf sends it as
// it lies; a rank that forwards its copy puts it back after the send. The
// root's result is the caller's to keep: on more than one rank a bufpool
// buffer it may hand back with bufpool.Put, on one rank data itself.
func Reduce(p PT2PT, root, tag int, data []byte, op Op, algo Algorithm) ([]byte, error) {
	size := p.Size()
	if root < 0 || root >= size {
		return nil, errRoot
	}
	if size == 1 {
		return data, nil
	}
	switch algo.Kind {
	case Flat:
		return reduceFlat(p, root, tag, data, op)
	case KAry:
		return reduceKAry(p, root, tag, data, op, algo.K)
	default:
		return reduceBinomial(p, root, tag, data, op)
	}
}

func reduceBinomial(p PT2PT, root, tag int, data []byte, op Op) ([]byte, error) {
	size, rank := p.Size(), p.Rank()
	rel := (rank - root + size) % size
	acc, own := data, false
	mask := 1
	for mask < size {
		if rel&mask == 0 {
			srcRel := rel | mask
			if srcRel < size {
				var err error
				if acc, err = fold(p, (srcRel+root)%size, tag, op, acc, own); err != nil {
					return nil, err
				}
				own = true
			}
		} else {
			dstRel := rel &^ mask
			return nil, forward(p, (dstRel+root)%size, tag, acc, own)
		}
		mask <<= 1
	}
	return acc, nil
}

func reduceFlat(p PT2PT, root, tag int, data []byte, op Op) ([]byte, error) {
	size, rank := p.Size(), p.Rank()
	if rank != root {
		return nil, p.Send(root, tag, data)
	}
	acc, own := data, false
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		var err error
		if acc, err = fold(p, r, tag, op, acc, own); err != nil {
			return nil, err
		}
		own = true
	}
	return acc, nil
}

// fold receives src's contribution and folds it into acc, first copying
// acc out of the caller's data into a bufpool buffer unless it already is
// a private copy (own): the reduce never writes data, and a rank that
// never receives never copies it. The contribution's frame goes back to a
// Lender once op has folded it. On an error a private acc goes back to the
// pool.
func fold(p PT2PT, src, tag int, op Op, acc []byte, own bool) ([]byte, error) {
	got, frame, err := recv(p, src, tag)
	if err != nil {
		if own {
			bufpool.Put(acc)
		}
		return nil, err
	}
	if !own {
		acc = append(bufpool.Get(len(acc))[:0], acc...)
	}
	acc = op(acc, got)
	release(p, frame)
	return acc, nil
}

// forward sends acc to dst, then puts it back in the pool if it is this
// rank's private copy (own).
func forward(p PT2PT, dst, tag int, acc []byte, own bool) error {
	err := p.Send(dst, tag, acc)
	if own {
		bufpool.Put(acc)
	}
	return err
}

func reduceKAry(p PT2PT, root, tag int, data []byte, op Op, k int) ([]byte, error) {
	if k < 2 {
		k = 2
	}
	size, rank := p.Size(), p.Rank()
	rel := (rank - root + size) % size
	acc, own := data, false
	for c := 1; c <= k; c++ {
		child := rel*k + c
		if child >= size {
			break
		}
		var err error
		if acc, err = fold(p, (child+root)%size, tag, op, acc, own); err != nil {
			return nil, err
		}
		own = true
	}
	if rel != 0 {
		return nil, forward(p, ((rel-1)/k+root)%size, tag, acc, own)
	}
	return acc, nil
}

// AllReduce folds every rank's data and returns the result everywhere
// (reduce to rank 0 followed by a broadcast). It uses two tags: tag for
// the reduce and tag+1 for the broadcast, so another collective on the
// same communicator should use neither. On more than one rank the result
// is the caller's, a buffer it may hand back with bufpool.Put: rank 0's is
// the reduce's, and a rank that received the result in a lent frame
// copies it into a bufpool buffer and hands the frame back. On one rank it
// is data itself.
func AllReduce(p PT2PT, tag int, data []byte, op Op, algo Algorithm) ([]byte, error) {
	acc, err := Reduce(p, 0, tag, data, op, algo)
	if err != nil {
		return nil, err
	}
	out, frame, err := bcast(p, 0, tag+1, acc, algo)
	if err != nil || frame == nil {
		return out, err
	}
	own := append(bufpool.Get(len(out))[:0], out...)
	release(p, frame)
	return own, nil
}
