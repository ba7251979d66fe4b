// Package bufpool provides process-wide, size-classed byte-slice pools for
// the staging hot path. The data path moves blocks that are identical in
// size iteration after iteration (a simulation re-stages the same grid every
// step), so recycling transfer buffers turns the per-block cost from
// allocate+zero into a pool hit.
//
// Ownership contract: a buffer obtained from Get is owned exclusively by the
// caller until Put. Put transfers ownership back to the pool — the caller
// must not retain any alias past that point, and in particular must not Put
// a buffer that is still exposed as a mercury bulk region or referenced by
// an in-flight send. Buffers are returned with their previous contents
// intact (no zeroing); callers must fully overwrite the bytes they use.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

const (
	// minBits..maxBits bound the power-of-two size classes: 256 B .. 64 MiB.
	// Below 256 B a fresh make is as cheap as a pool hit; above 64 MiB a
	// buffer parked in a pool is too much memory to hold speculatively.
	minBits = 8
	maxBits = 26
)

// A parked buffer travels as a pointer to its slice header — storing the
// slice itself in a sync.Pool would allocate a header on every Put — and
// the emptied headers are recycled through a pool of their own.
var (
	pools   [maxBits - minBits + 1]sync.Pool // *[]byte, parked
	headers sync.Pool                        // *[]byte, nil
)

// Stats counts pool traffic; test helpers use it to assert hot paths
// actually recycle instead of silently falling back to make.
var (
	gets   atomic.Int64 // Get calls served (pooled classes only)
	misses atomic.Int64 // Get calls that had to allocate a fresh buffer
	puts   atomic.Int64 // Put calls that parked a buffer in a class
)

// Stats reports (gets, misses, puts) since process start.
func Stats() (g, m, p int64) {
	return gets.Load(), misses.Load(), puts.Load()
}

// classFor returns the pool index whose buffers hold at least n bytes, or
// -1 if n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 {
		return 0
	}
	b := bits.Len(uint(n - 1)) // ceil(log2(n))
	if b < minBits {
		return 0
	}
	if b > maxBits {
		return -1
	}
	return b - minBits
}

// Get returns a slice of length n backed by pooled storage. Contents are
// undefined. Requests larger than the biggest class fall back to make.
func Get(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	gets.Add(1)
	if v := pools[c].Get(); v != nil {
		p := v.(*[]byte)
		b := *p
		*p = nil
		headers.Put(p)
		return b[:n]
	}
	misses.Add(1)
	return make([]byte, n, 1<<(c+minBits))
}

// Put returns b's storage to its size class. Slices too small or too large
// for any class are dropped. After Put the caller must not touch b again.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minBits {
		return
	}
	k := bits.Len(uint(c)) - 1 // floor(log2(cap)): largest class that fits
	if k > maxBits {
		// At least twice the top class: too much memory to park. Drop.
		return
	}
	puts.Add(1)
	p, _ := headers.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0]
	pools[k-minBits].Put(p)
}
