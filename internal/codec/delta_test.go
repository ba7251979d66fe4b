package codec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// evolveGrid mutates a float32 grid the way a simulation step does: small
// coherent changes to a subset of cells. This is what makes XOR residuals
// mostly zero.
func evolveGrid(grid []byte, rng *rand.Rand) {
	for i := 0; i+4 <= len(grid); i += 4 {
		if rng.Intn(8) != 0 {
			continue
		}
		v := math.Float32frombits(binary.LittleEndian.Uint32(grid[i:]))
		v += float32(rng.Float64()) * 0.001
		binary.LittleEndian.PutUint32(grid[i:], math.Float32bits(v))
	}
}

// stageDelta performs one client-side delta stage against cs and returns the
// wire bytes plus whether a base was used — the same sequence encodeStage
// runs in internal/core.
func stageDelta(t *testing.T, cs *DeltaState, k DeltaKey, it uint64, data []byte) (wire []byte, base uint64, hasBase bool) {
	t.Helper()
	src, work := data, make([]byte, len(data))
	if prevIt, ok := cs.XORLatest(work, k, it, data); ok {
		base, hasBase, src = prevIt, true, work
	}
	wire, err := Delta{}.Encode(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	cs.Remember(k, it, data)
	return wire, base, hasBase
}

// receiveDelta performs the matching server-side decode against ss,
// returning the reconstructed block or an error on base mismatch — mirroring
// handleStage.
func receiveDelta(ss *DeltaState, k DeltaKey, it uint64, wire []byte, uncompressed int, base uint64, hasBase bool) ([]byte, error) {
	data, err := (Delta{}).Decode(nil, wire, uncompressed)
	if err != nil {
		return nil, err
	}
	if hasBase {
		if !ss.XORBase(k, base, data) {
			return nil, fmt.Errorf("delta base mismatch: block %d base %d", k.Block, base)
		}
	}
	ss.Remember(k, it, data)
	return data, nil
}

// TestDeltaSequenceBitIdentical: randomized evolving grid sequences round
// trip bit-identically through paired client/server DeltaStates, and the
// deltas actually beat single-frame shuffle once history exists.
func TestDeltaSequenceBitIdentical(t *testing.T) {
	for _, blocks := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(100 + blocks)))
		client := NewDeltaState(0)
		server := NewDeltaState(0)
		grids := make([][]byte, blocks)
		for b := range grids {
			grids[b] = float32Grid(16*16*16, int64(b))
		}
		var deltaWire, shuffleWire int
		for it := uint64(1); it <= 20; it++ {
			for b, grid := range grids {
				k := DeltaKey{Pipeline: "viz", Field: "U", Block: b}
				wire, base, hasBase := stageDelta(t, client, k, it, grid)
				if it > 1 && !hasBase {
					t.Fatalf("iter %d block %d: expected a delta base", it, b)
				}
				got, err := receiveDelta(server, k, it, wire, len(grid), base, hasBase)
				if err != nil {
					t.Fatalf("iter %d block %d: %v", it, b, err)
				}
				if !bytes.Equal(got, grid) {
					t.Fatalf("iter %d block %d: reconstruction not bit-identical", it, b)
				}
				if hasBase {
					deltaWire += len(wire)
					sw, _ := Shuffle{}.Encode(nil, grid)
					shuffleWire += len(sw)
				}
				evolveGrid(grid, rng)
			}
		}
		if deltaWire >= shuffleWire {
			t.Fatalf("delta (%d bytes) did not beat shuffle (%d bytes) on a coherent sequence", deltaWire, shuffleWire)
		}
	}
}

// TestDeltaXORBaseRefusals: every way a base can be wrong must make XORBase
// report false — the signal that forces zero-base fallback instead of
// silently wrong bytes.
func TestDeltaXORBaseRefusals(t *testing.T) {
	s := NewDeltaState(0)
	k := DeltaKey{Pipeline: "p", Field: "f", Block: 0}
	data := []byte{1, 2, 3, 4}
	if s.XORBase(k, 0, data) {
		t.Fatal("XORBase with no stored entry applied")
	}
	s.Remember(k, 5, data)
	if s.XORBase(k, 4, append([]byte(nil), data...)) {
		t.Fatal("XORBase with stale base iteration applied")
	}
	if s.XORBase(k, 6, append([]byte(nil), data...)) {
		t.Fatal("XORBase with future base iteration applied")
	}
	if s.XORBase(k, 5, []byte{1, 2, 3}) {
		t.Fatal("XORBase with mismatched length applied")
	}
	if s.XORBase(DeltaKey{Pipeline: "p", Field: "g", Block: 0}, 5, data) {
		t.Fatal("XORBase with wrong key applied")
	}
	buf := append([]byte(nil), data...)
	if !s.XORBase(k, 5, buf) {
		t.Fatal("matching XORBase refused")
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("XOR against identical base should zero the buffer")
		}
	}
	// XORLatest is the encode side's one-pass form: it finds the base
	// itself, refuses one that is not older than the iteration being staged
	// or not as long, and never writes to src.
	dst := make([]byte, len(data))
	if _, ok := s.XORLatest(dst, k, 5, data); ok {
		t.Fatal("XORLatest against a base of the same iteration applied")
	}
	if _, ok := s.XORLatest(dst[:3], k, 6, data[:3]); ok {
		t.Fatal("XORLatest with mismatched length applied")
	}
	if _, ok := s.XORLatest(dst, DeltaKey{Pipeline: "q"}, 6, data); ok {
		t.Fatal("XORLatest with wrong key applied")
	}
	src := []byte{9, 2, 3, 5}
	if base, ok := s.XORLatest(dst, k, 6, src); !ok || base != 5 || !bytes.Equal(dst, []byte{8, 0, 0, 1}) {
		t.Fatalf("XORLatest = %v (base %d, ok %v)", dst, base, ok)
	}
	if !bytes.Equal(src, []byte{9, 2, 3, 5}) {
		t.Fatal("XORLatest wrote to src")
	}
}

// TestDeltaSkippedIteration: a block absent for one iteration resumes with
// the older base (Latest exposes the real stored iteration, and the encoder
// uses that), still bit-identical end to end.
func TestDeltaSkippedIteration(t *testing.T) {
	client, server := NewDeltaState(0), NewDeltaState(0)
	k := DeltaKey{Pipeline: "viz", Field: "U", Block: 0}
	grid := float32Grid(1024, 42)
	rng := rand.New(rand.NewSource(43))
	for _, it := range []uint64{1, 2, 4, 7} { // gaps at 3, 5, 6
		wire, base, hasBase := stageDelta(t, client, k, it, grid)
		got, err := receiveDelta(server, k, it, wire, len(grid), base, hasBase)
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		if !bytes.Equal(got, grid) {
			t.Fatalf("iter %d: not bit-identical", it)
		}
		evolveGrid(grid, rng)
	}
}

// TestDeltaMembershipChangeInvalidation: after InvalidatePipeline (what a
// membership change triggers on both sides) the next stage must be
// zero-base, and a server that did NOT invalidate must reject a based frame
// rather than reconstruct wrong bytes.
func TestDeltaMembershipChangeInvalidation(t *testing.T) {
	client, server := NewDeltaState(0), NewDeltaState(0)
	k := DeltaKey{Pipeline: "viz", Field: "U", Block: 0}
	grid := float32Grid(1024, 7)
	wire, base, hasBase := stageDelta(t, client, k, 1, grid)
	if _, err := receiveDelta(server, k, 1, wire, len(grid), base, hasBase); err != nil {
		t.Fatal(err)
	}

	// Both sides invalidate: next frame is zero-base and still correct.
	client.InvalidatePipeline("viz")
	server.InvalidatePipeline("viz")
	if client.Bytes() != 0 {
		t.Fatalf("client still holds %d bytes after invalidation", client.Bytes())
	}
	wire, base, hasBase = stageDelta(t, client, k, 2, grid)
	if hasBase {
		t.Fatal("stage after invalidation used a base")
	}
	got, err := receiveDelta(server, k, 2, wire, len(grid), base, hasBase)
	if err != nil || !bytes.Equal(got, grid) {
		t.Fatalf("zero-base frame after invalidation: %v", err)
	}

	// Server-only invalidation (crash recovery on the server): a based frame
	// from the client must be rejected, never silently wrong.
	server.InvalidatePipeline("viz")
	wire, base, hasBase = stageDelta(t, client, k, 3, grid)
	if !hasBase {
		t.Fatal("client should still have its base")
	}
	if _, err := receiveDelta(server, k, 3, wire, len(grid), base, hasBase); err == nil {
		t.Fatal("server accepted a based frame with no stored base")
	}
	// Other pipelines are untouched by InvalidatePipeline.
	other := DeltaKey{Pipeline: "img", Field: "U", Block: 0}
	client.Remember(other, 1, grid)
	client.InvalidatePipeline("viz")
	if _, _, ok := client.Latest(other); !ok {
		t.Fatal("InvalidatePipeline dropped another pipeline's base")
	}
}

// TestDeltaRememberSemantics: same-length in-place reuse, length-change
// replacement, Reset, Bytes accounting, and the oversized-buf guard.
func TestDeltaRememberSemantics(t *testing.T) {
	s := NewDeltaState(1024)
	k := DeltaKey{Pipeline: "p", Field: "f", Block: 1}
	s.Remember(k, 1, bytes.Repeat([]byte{1}, 100))
	if s.Bytes() != 100 {
		t.Fatalf("Bytes() = %d", s.Bytes())
	}
	s.Remember(k, 2, bytes.Repeat([]byte{2}, 100)) // same length: in-place
	if it, n, ok := s.Latest(k); !ok || it != 2 || n != 100 || s.Bytes() != 100 {
		t.Fatalf("after in-place update: it=%d n=%d bytes=%d", it, n, s.Bytes())
	}
	s.Remember(k, 3, bytes.Repeat([]byte{3}, 200)) // resize: replace
	if it, n, _ := s.Latest(k); it != 3 || n != 200 || s.Bytes() != 200 {
		t.Fatalf("after resize: it=%d n=%d bytes=%d", it, n, s.Bytes())
	}
	s.Remember(k, 4, make([]byte, 2048)) // over the whole limit: ignored
	if it, _, _ := s.Latest(k); it != 3 {
		t.Fatal("oversized Remember replaced the entry")
	}
	s.Reset()
	if s.Bytes() != 0 {
		t.Fatalf("Bytes() = %d after Reset", s.Bytes())
	}
	if _, _, ok := s.Latest(k); ok {
		t.Fatal("entry survived Reset")
	}
}

// TestDeltaEvictionBound: the memory bound holds under churn and evicts
// least-recently-used first.
func TestDeltaEvictionBound(t *testing.T) {
	s := NewDeltaState(1000)
	for b := 0; b < 50; b++ {
		s.Remember(DeltaKey{Pipeline: "p", Field: "f", Block: b}, 1, make([]byte, 100))
		if s.Bytes() > 1000 {
			t.Fatalf("Bytes() = %d exceeds limit", s.Bytes())
		}
	}
	if s.Bytes() != 1000 {
		t.Fatalf("Bytes() = %d, want full at 1000", s.Bytes())
	}
	// Blocks 0..39 were evicted; 40..49 remain.
	if _, _, ok := s.Latest(DeltaKey{Pipeline: "p", Field: "f", Block: 0}); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, _, ok := s.Latest(DeltaKey{Pipeline: "p", Field: "f", Block: 49}); !ok {
		t.Fatal("newest entry evicted")
	}
	// Touching an old entry via XORBase protects it from the next eviction.
	k45 := DeltaKey{Pipeline: "p", Field: "f", Block: 45}
	if !s.XORBase(k45, 1, make([]byte, 100)) {
		t.Fatal("XORBase on retained entry refused")
	}
	for b := 100; b < 109; b++ {
		s.Remember(DeltaKey{Pipeline: "p", Field: "f", Block: b}, 1, make([]byte, 100))
	}
	if _, _, ok := s.Latest(k45); !ok {
		t.Fatal("recently used entry evicted before stale ones")
	}
}

// TestDeltaStateConcurrent drives all DeltaState operations from many
// goroutines; run under -race this is the single-ownership proof for the
// shared state.
func TestDeltaStateConcurrent(t *testing.T) {
	s := NewDeltaState(64 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]byte, 512)
			for i := 0; i < 500; i++ {
				k := DeltaKey{Pipeline: "p", Field: "f", Block: rng.Intn(32)}
				switch rng.Intn(5) {
				case 0:
					s.Remember(k, uint64(i), buf)
				case 1:
					s.XORBase(k, uint64(rng.Intn(500)), buf)
				case 2:
					s.Latest(k)
				case 3:
					s.Bytes()
				case 4:
					if rng.Intn(50) == 0 {
						s.InvalidatePipeline("p")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	s.Reset()
	if s.Bytes() != 0 {
		t.Fatalf("Bytes() = %d after concurrent churn + Reset", s.Bytes())
	}
}

// TestXORInto covers the unrolled tail boundaries.
func TestXORInto(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 1000} {
		a := randomBytes(n, int64(n))
		b := randomBytes(n, int64(n+1))
		got := append([]byte(nil), a...)
		xorInto(got, b)
		for i := range got {
			if got[i] != a[i]^b[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}
