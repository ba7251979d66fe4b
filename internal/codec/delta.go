package codec

import (
	"sync"

	"colza/internal/bufpool"
)

// Delta is the temporal codec: the caller XORs the block against the
// previous iteration's copy (held in a DeltaState) and Delta encodes the
// residual with the same shuffle transform as Shuffle. Frame-to-frame
// coherence makes the XOR mostly zeros, which become constant segments far
// below what any single-frame codec reaches. With no history the XOR base
// is absent and Delta degenerates to Shuffle — a "zero-base" delta,
// bit-compatible on the wire, which is what makes fallback after
// invalidation safe.
//
// The codec itself stays stateless: base management, bounding, and
// invalidation all live in DeltaState so that a Codec in flight can never
// observe cross-iteration state mutating under it.
type Delta struct{}

func (Delta) ID() uint8                { return DeltaID }
func (Delta) Name() string             { return "delta" }
func (Delta) MaxEncodedSize(n int) int { return Shuffle{}.MaxEncodedSize(n) }

func (Delta) Encode(dst, src []byte) ([]byte, error) { return Shuffle{}.Encode(dst, src) }

func (Delta) Decode(dst, src []byte, srcLen int) ([]byte, error) {
	return Shuffle{}.Decode(dst, src, srcLen)
}

// DeltaKey identifies one block's delta history: the previous iteration of
// field Field, block Block, in pipeline Pipeline.
type DeltaKey struct {
	Pipeline string
	Field    string
	Block    int
}

// DeltaState holds the per-block base copies that delta encoding XORs
// against, on either side of the wire. Memory is bounded: when the total
// stored bytes would exceed the limit, the least recently touched entries
// are evicted (an evicted base just forces the next delta for that block to
// fall back to zero-base — correctness never depends on retention).
//
// All access is under one mutex, and the XOR/copy helpers do their work
// inside the lock so no internal slice ever escapes. That is what lets
// Remember reuse same-length storage in place without racing a reader.
type DeltaState struct {
	mu      sync.Mutex
	limit   int
	bytes   int
	seq     uint64
	entries map[DeltaKey]*deltaEntry
}

type deltaEntry struct {
	iter uint64
	data []byte // bufpool-owned
	used uint64 // LRU stamp
}

// DefaultDeltaStateBytes bounds a DeltaState that was not given an explicit
// limit: enough for a few hundred 256KiB blocks per process.
const DefaultDeltaStateBytes = 256 << 20

// NewDeltaState returns a DeltaState bounded to limitBytes of stored base
// data (DefaultDeltaStateBytes if limitBytes <= 0).
func NewDeltaState(limitBytes int) *DeltaState {
	if limitBytes <= 0 {
		limitBytes = DefaultDeltaStateBytes
	}
	return &DeltaState{limit: limitBytes, entries: map[DeltaKey]*deltaEntry{}}
}

// XORBase XORs buf in place against the stored base for k if — and only
// if — the stored base is from iteration base and the same length as buf.
// It reports whether the XOR was applied. A false return means the caller
// must use a zero base (encode side) or reject the frame (decode side).
func (s *DeltaState) XORBase(k DeltaKey, base uint64, buf []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok || e.iter != base || len(e.data) != len(buf) {
		return false
	}
	s.seq++
	e.used = s.seq
	xorInto(buf, e.data)
	return true
}

// XORLatest writes src XOR the stored base for k into dst (same length as
// src, which stays untouched) in one locked pass, if the stored base is
// from an iteration before it and as long as src. It reports that base's
// iteration and whether the XOR was written; if not, dst is garbage and the
// caller uses a zero base.
func (s *DeltaState) XORLatest(dst []byte, k DeltaKey, it uint64, src []byte) (base uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok || e.iter >= it || len(e.data) != len(src) {
		return 0, false
	}
	s.seq++
	e.used = s.seq
	xorTo(dst, src, e.data)
	return e.iter, true
}

// Latest reports the iteration and length of the stored base for k.
func (s *DeltaState) Latest(k DeltaKey) (iter uint64, n int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return 0, 0, false
	}
	return e.iter, len(e.data), true
}

// Remember stores a copy of buf as the iteration-it base for k, reusing the
// existing storage when the length matches and evicting least recently used
// entries if the bound would be exceeded. A buf larger than the whole limit
// is simply not remembered.
func (s *DeltaState) Remember(k DeltaKey, it uint64, buf []byte) {
	if len(buf) > s.limit {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	if e, ok := s.entries[k]; ok {
		if len(e.data) == len(buf) {
			copy(e.data, buf)
			e.iter = it
			e.used = s.seq
			return
		}
		s.bytes -= len(e.data)
		bufpool.Put(e.data)
		delete(s.entries, k)
	}
	for s.bytes+len(buf) > s.limit {
		s.evictOldestLocked()
	}
	data := bufpool.Get(len(buf))
	copy(data, buf)
	s.entries[k] = &deltaEntry{iter: it, data: data, used: s.seq}
	s.bytes += len(buf)
}

func (s *DeltaState) evictOldestLocked() {
	var victim DeltaKey
	var oldest uint64
	found := false
	for k, e := range s.entries {
		if !found || e.used < oldest {
			victim, oldest, found = k, e.used, true
		}
	}
	if !found {
		return
	}
	e := s.entries[victim]
	s.bytes -= len(e.data)
	bufpool.Put(e.data)
	delete(s.entries, victim)
}

// InvalidatePipeline drops every base belonging to pipeline p. Called when
// the pipeline's membership changes or its state is recovered/imported —
// any event after which the peer's history can no longer be assumed.
func (s *DeltaState) InvalidatePipeline(p string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.entries {
		if k.Pipeline == p {
			s.bytes -= len(e.data)
			bufpool.Put(e.data)
			delete(s.entries, k)
		}
	}
}

// Reset drops all stored bases.
func (s *DeltaState) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.entries {
		s.bytes -= len(e.data)
		bufpool.Put(e.data)
		delete(s.entries, k)
	}
}

// Bytes reports the bytes of base data currently held.
func (s *DeltaState) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// xorInto lives in kernels.go: a word-wise XOR with byte-wise tail.
