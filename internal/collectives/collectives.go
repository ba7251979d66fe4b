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
// input data is ignored and the received payload is returned; on the root
// the input is returned unchanged.
func Bcast(p PT2PT, root, tag int, data []byte, algo Algorithm) ([]byte, error) {
	size := p.Size()
	if root < 0 || root >= size {
		return nil, errRoot
	}
	if size == 1 {
		return data, nil
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

func bcastBinomial(p PT2PT, root, tag int, data []byte) ([]byte, error) {
	size, rank := p.Size(), p.Rank()
	rel := (rank - root + size) % size
	mask := 1
	for mask < size {
		if rel&mask != 0 {
			src := rank - mask
			if src < 0 {
				src += size
			}
			got, err := p.Recv(src, tag)
			if err != nil {
				return nil, err
			}
			data = got
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
				return nil, err
			}
		}
		mask >>= 1
	}
	return data, nil
}

func bcastFlat(p PT2PT, root, tag int, data []byte) ([]byte, error) {
	size, rank := p.Size(), p.Rank()
	if rank == root {
		for r := 0; r < size; r++ {
			if r == root {
				continue
			}
			if err := p.Send(r, tag, data); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	return p.Recv(root, tag)
}

func bcastKAry(p PT2PT, root, tag int, data []byte, k int) ([]byte, error) {
	if k < 2 {
		k = 2
	}
	size, rank := p.Size(), p.Rank()
	rel := (rank - root + size) % size
	if rel != 0 {
		parent := ((rel-1)/k + root) % size
		got, err := p.Recv(parent, tag)
		if err != nil {
			return nil, err
		}
		data = got
	}
	for c := 1; c <= k; c++ {
		child := rel*k + c
		if child >= size {
			break
		}
		dst := (child + root) % size
		if err := p.Send(dst, tag, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Op folds an incoming contribution into an accumulator. Implementations
// may modify acc in place and must return the folded result; acc and in are
// same-length buffers.
type Op func(acc, in []byte) []byte

// Reduce folds the data contributed by every rank with op; the result is
// returned on root (other ranks return nil). The operation is assumed
// commutative and associative, as in the paper's binary-tree reduction.
// data is only read: a rank that receives folds into a private copy of it,
// made at its first receive (fold), and a leaf sends it as it lies. The
// root's result is the caller's to keep — data itself on a one-rank
// communicator.
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
				src := (srcRel + root) % size
				got, err := p.Recv(src, tag)
				if err != nil {
					return nil, err
				}
				acc, own = fold(op, acc, own, got), true
			}
		} else {
			dstRel := rel &^ mask
			dst := (dstRel + root) % size
			if err := p.Send(dst, tag, acc); err != nil {
				return nil, err
			}
			return nil, nil
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
		got, err := p.Recv(r, tag)
		if err != nil {
			return nil, err
		}
		acc, own = fold(op, acc, own, got), true
	}
	return acc, nil
}

// fold folds a received contribution into acc, first copying acc out of
// the caller's data unless it is already a private copy (own): the reduce
// never writes data, and a rank that never receives never copies it.
func fold(op Op, acc []byte, own bool, got []byte) []byte {
	if !own {
		acc = append([]byte(nil), acc...)
	}
	return op(acc, got)
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
		src := (child + root) % size
		got, err := p.Recv(src, tag)
		if err != nil {
			return nil, err
		}
		acc, own = fold(op, acc, own, got), true
	}
	if rel != 0 {
		parent := ((rel-1)/k + root) % size
		return nil, p.Send(parent, tag, acc)
	}
	return acc, nil
}

// AllReduce folds every rank's data and returns the result everywhere
// (reduce to rank 0 followed by a broadcast). It uses two tags: tag for
// the reduce and tag+1 for the broadcast, so another collective on the
// same communicator should use neither.
func AllReduce(p PT2PT, tag int, data []byte, op Op, algo Algorithm) ([]byte, error) {
	acc, err := Reduce(p, 0, tag, data, op, algo)
	if err != nil {
		return nil, err
	}
	return Bcast(p, 0, tag+1, acc, algo)
}
