package catalyst

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"colza/internal/core"
	"colza/internal/vtk"
)

// newStatsForTest constructs a StatsPipeline through its registered
// factory, so tests exercise exactly what servers instantiate.
func newStatsForTest(t *testing.T, field string) *StatsPipeline {
	t.Helper()
	factory, ok := core.LookupPipelineType(StatsPipelineType)
	if !ok {
		t.Fatal("stats type not registered")
	}
	b, err := factory(json.RawMessage(`{"field":"` + field + `"}`))
	if err != nil {
		t.Fatal(err)
	}
	return b.(*StatsPipeline)
}

// foldIteration pushes one iteration of known data through the
// activate/stage/deactivate path (Execute needs a communicator; the fold
// at deactivate does not).
func foldIteration(t *testing.T, p *StatsPipeline, it uint64, values []float32) {
	t.Helper()
	if err := p.Activate(core.IterationContext{Iteration: it, Size: 1}); err != nil {
		t.Fatal(err)
	}
	img := vtk.NewImageData([3]int{2, 2, 2}, [3]float64{}, [3]float64{1, 1, 1})
	arr := img.AddPointArray("f", 1)
	copy(arr.Data, values)
	if err := p.Stage(it, core.BlockMeta{BlockID: 0, Type: "imagedata"}, img.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := p.Deactivate(it); err != nil {
		t.Fatal(err)
	}
}

// TestStatsStateRoundTrip: export -> import into a fresh instance -> the
// re-export is byte-identical (the format is canonical: sorted, fixed
// layout).
func TestStatsStateRoundTrip(t *testing.T) {
	src := newStatsForTest(t, "f")
	foldIteration(t, src, 1, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	foldIteration(t, src, 2, []float32{-3, 100, 0.5, 9, 9, 9, 9, 9})

	blob, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	dst := newStatsForTest(t, "f")
	if err := dst.ImportState(blob); err != nil {
		t.Fatal(err)
	}
	got, err := dst.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, got) {
		t.Fatalf("round-trip mismatch:\n  exported %d bytes\n  re-exported %d bytes", len(blob), len(got))
	}
	// And the moments themselves survived.
	dst.mu.Lock()
	m := dst.running[src.origin]
	dst.mu.Unlock()
	if m.Count != 16 || m.Iters != 2 || m.Min != -3 || m.Max != 100 {
		t.Fatalf("imported moments = %+v", m)
	}
}

// TestStatsStateDoubleImportIdempotent: importing the same blob twice (an
// origin's moments met again inside another peer's map) must not
// double-count.
func TestStatsStateDoubleImportIdempotent(t *testing.T) {
	src := newStatsForTest(t, "f")
	foldIteration(t, src, 1, []float32{2, 4, 6, 8, 10, 12, 14, 16})
	blob, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	dst := newStatsForTest(t, "f")
	foldIteration(t, dst, 1, []float32{1, 1, 1, 1, 1, 1, 1, 1}) // own state too
	for i := 0; i < 3; i++ {
		if err := dst.ImportState(blob); err != nil {
			t.Fatalf("import %d: %v", i, err)
		}
	}
	dst.mu.Lock()
	var count int64
	var sum float64
	for _, m := range dst.running {
		count += m.Count
		sum += m.Sum
	}
	dst.mu.Unlock()
	if count != 16 || sum != 80 {
		t.Fatalf("after triple import: count=%d sum=%v, want 16 and 80 (8+72)", count, sum)
	}
}

// TestStatsStateMergeCommutes: importing two peers' blobs in either order
// converges to the same state (per-origin newest-wins is a join).
func TestStatsStateMergeCommutes(t *testing.T) {
	a := newStatsForTest(t, "f")
	foldIteration(t, a, 1, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	b := newStatsForTest(t, "f")
	foldIteration(t, b, 1, []float32{10, 20, 30, 40, 50, 60, 70, 80})
	blobA, _ := a.ExportState()
	blobB, _ := b.ExportState()

	ab := newStatsForTest(t, "f")
	ba := newStatsForTest(t, "f")
	for _, step := range []struct {
		p     *StatsPipeline
		blobs [][]byte
	}{{ab, [][]byte{blobA, blobB}}, {ba, [][]byte{blobB, blobA}}} {
		for _, blob := range step.blobs {
			if err := step.p.ImportState(blob); err != nil {
				t.Fatal(err)
			}
		}
	}
	outAB, _ := ab.ExportState()
	outBA, _ := ba.ExportState()
	if !bytes.Equal(outAB, outBA) {
		t.Fatal("merge order changed the state")
	}
}

// TestStatsStateNewerVersionWins: an origin's later checkpoint supersedes
// an earlier one regardless of arrival order.
func TestStatsStateNewerVersionWins(t *testing.T) {
	src := newStatsForTest(t, "f")
	foldIteration(t, src, 1, []float32{1, 1, 1, 1, 1, 1, 1, 1})
	oldBlob, _ := src.ExportState()
	foldIteration(t, src, 2, []float32{2, 2, 2, 2, 2, 2, 2, 2})
	newBlob, _ := src.ExportState()

	dst := newStatsForTest(t, "f")
	if err := dst.ImportState(newBlob); err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportState(oldBlob); err != nil {
		t.Fatal(err)
	}
	dst.mu.Lock()
	m := dst.running[src.origin]
	dst.mu.Unlock()
	if m.Iters != 2 || m.Count != 16 || m.Sum != 24 {
		t.Fatalf("stale import clobbered newer state: %+v", m)
	}
}

// TestStatsStateRejectsGarbage: malformed blobs error cleanly and leave
// the instance untouched.
func TestStatsStateRejectsGarbage(t *testing.T) {
	p := newStatsForTest(t, "f")
	foldIteration(t, p, 1, []float32{1, 2, 3, 4, 5, 6, 7, 8})
	before, _ := p.ExportState()

	valid, _ := p.ExportState()
	bad := [][]byte{
		nil,
		[]byte("x"),
		[]byte("JUNKJUNKJUNK"),
		valid[:len(valid)-1],           // truncated tail
		append(valid, 0),               // trailing byte
		[]byte("CZS1\xff\xff\xff\xff"), // absurd entry count
	}
	for i, blob := range bad {
		if err := p.ImportState(blob); err == nil {
			t.Fatalf("garbage blob %d accepted", i)
		}
	}
	after, _ := p.ExportState()
	if !bytes.Equal(before, after) {
		t.Fatal("failed imports mutated state")
	}
}

// countlessSumBlob is a state blob whose one entry carries a sum of 5 over
// no values, which no fold writes.
func countlessSumBlob() []byte {
	src := &StatsPipeline{cfg: StatsConfig{Field: "f"}, origin: "o", running: map[string]runningMoments{
		"o": {Count: 0, Sum: 5, Iters: 1},
	}}
	blob, _ := src.ExportState()
	return blob
}

// TestStatsStateRefusesSumWithoutCount: an entry with Count 0 and a nonzero
// Sum is refused with the parser's other errors; accepted, it made Execute
// report run_count 0 beside run_sum 5.
func TestStatsStateRefusesSumWithoutCount(t *testing.T) {
	p := newStatsForTest(t, "f")
	before, _ := p.ExportState()
	if err := p.ImportState(countlessSumBlob()); err == nil {
		t.Fatal("an entry with a sum of 5 over 0 values was accepted")
	}
	if after, _ := p.ExportState(); !bytes.Equal(before, after) {
		t.Fatal("the refused import mutated state")
	}
}

// FuzzStatsImportState: no input may panic ImportState, and any input it
// accepts must be idempotent on double import and hold no sum over zero
// values. `go test` runs the seed corpus; `go test -fuzz` explores further.
func FuzzStatsImportState(f *testing.F) {
	src := &StatsPipeline{cfg: StatsConfig{Field: "f"}, origin: "fuzz-origin", running: map[string]runningMoments{
		"fuzz-origin": {Count: 8, Sum: 36, Min: 1, Max: 8, Iters: 1},
	}}
	valid, _ := src.ExportState()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("CZS1"))
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte{}, valid...), valid...))
	rng := rand.New(rand.NewSource(42))
	junk := make([]byte, 64)
	rng.Read(junk)
	f.Add(junk)
	f.Add(countlessSumBlob())

	f.Fuzz(func(t *testing.T, blob []byte) {
		p := &StatsPipeline{cfg: StatsConfig{Field: "f"}, origin: "sink", running: map[string]runningMoments{}}
		if err := p.ImportState(blob); err != nil {
			return // rejected cleanly
		}
		for id, m := range p.running {
			if m.Count == 0 && m.Sum != 0 {
				t.Fatalf("accepted entry %q holds sum %v over 0 values", id, m.Sum)
			}
		}
		once, err := p.ExportState()
		if err != nil {
			t.Fatalf("export after accepted import: %v", err)
		}
		if err := p.ImportState(blob); err != nil {
			t.Fatalf("accepted blob rejected on re-import: %v", err)
		}
		twice, err := p.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("double import is not idempotent")
		}
	})
}
