package obs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// fakeClock is an advanceable virtual clock, the same shape dessim provides.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) clock() Clock { return func() time.Duration { return f.now } }

func TestSpanLifecycle(t *testing.T) {
	fc := &fakeClock{}
	r := NewRegistry()
	r.SetClock(fc.clock())

	sp := r.StartSpan("stage", SpanKey{Pipeline: "viz", Iteration: 3, Rank: 1})
	fc.now = 5 * time.Millisecond
	if dur := sp.End(nil); dur != 5*time.Millisecond {
		t.Fatalf("dur = %v, want 5ms", dur)
	}

	sp = r.StartSpan("stage", SpanKey{Pipeline: "viz", Iteration: 4, Rank: 1})
	fc.now += 7 * time.Millisecond
	sp.End(errors.New("dropped"))

	h := r.Histogram("span.stage", "pipeline", "viz").Snapshot()
	if h.Count != 2 {
		t.Fatalf("span histogram count = %d, want 2", h.Count)
	}
	if got := r.Counter("span.stage.errors", "pipeline", "viz").Value(); got != 1 {
		t.Fatalf("error counter = %d, want 1", got)
	}

	recs := r.Trace()
	if len(recs) != 2 {
		t.Fatalf("trace len = %d, want 2", len(recs))
	}
	if recs[0].Name != "stage" || recs[0].Pipeline != "viz" || recs[0].Iteration != 3 ||
		recs[0].Rank != 1 || recs[0].DurNS != int64(5*time.Millisecond) || recs[0].Err != "" {
		t.Fatalf("first record: %+v", recs[0])
	}
	if recs[1].Err != "dropped" || recs[1].StartNS != int64(5*time.Millisecond) {
		t.Fatalf("second record: %+v", recs[1])
	}
}

func TestSpanNilSafety(t *testing.T) {
	var r *Registry
	sp := r.StartSpan("x", SpanKey{})
	if sp != nil {
		t.Fatal("nil registry should yield nil span")
	}
	if sp.End(nil) != 0 {
		t.Fatal("nil span End should be a no-op")
	}
}

func TestSpanWithoutPipelineLabel(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("activate", SpanKey{Iteration: 1, Rank: -1}).End(nil)
	if r.Histogram("span.activate").Count() != 1 {
		t.Fatal("pipeline-less span should record under the bare name")
	}
}

func TestTraceRingEviction(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(4)
	for i := uint64(0); i < 10; i++ {
		r.StartSpan("s", SpanKey{Iteration: i}).End(nil)
	}
	recs := r.Trace()
	if len(recs) != 4 {
		t.Fatalf("trace len = %d, want 4", len(recs))
	}
	if recs[0].Iteration != 6 || recs[3].Iteration != 9 {
		t.Fatalf("ring should keep the newest spans: %+v", recs)
	}
	if r.TraceDropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.TraceDropped())
	}
}

// TestTraceRingWrapsAndResizes fills the ring several times past capacity
// (the head wraps), then shrinks and grows it mid-wrap: Trace stays oldest to
// newest, a shrink keeps the newest records and counts the rest as dropped,
// and appends after a resize continue the order.
func TestTraceRingWrapsAndResizes(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(8)
	next := uint64(0)
	add := func(n int) {
		for i := 0; i < n; i++ {
			r.StartSpan("s", SpanKey{Iteration: next}).End(nil)
			next++
		}
	}
	check := func(wantLen int, wantDropped int64) {
		t.Helper()
		recs := r.Trace()
		if len(recs) != wantLen || r.TraceDropped() != wantDropped {
			t.Fatalf("len = %d dropped = %d, want %d and %d", len(recs), r.TraceDropped(), wantLen, wantDropped)
		}
		for i, rec := range recs {
			if want := next - uint64(wantLen) + uint64(i); rec.Iteration != want {
				t.Fatalf("record %d is iteration %d, want %d: not oldest to newest", i, rec.Iteration, want)
			}
		}
	}
	add(5)
	check(5, 0)
	add(8*3 + 1) // 30 spans: wrapped three times, head mid-buffer
	check(8, 22)
	r.SetTraceCapacity(3)
	check(3, 27)
	add(2)
	check(3, 29)
	r.SetTraceCapacity(6)
	check(3, 29)
	add(5)
	check(6, 31)
}

func TestTraceJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("stage", SpanKey{Pipeline: "viz", Iteration: 1, Rank: 0}).End(nil)
	r.StartSpan("execute", SpanKey{Pipeline: "viz", Iteration: 1, Rank: 2}).End(errors.New("boom"))

	var sb strings.Builder
	if err := r.WriteTraceJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(strings.TrimSpace(sb.String()), "\n") + 1; n != 2 {
		t.Fatalf("expected 2 JSON lines, got %d:\n%s", n, sb.String())
	}
	got, err := ParseTraceJSON(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := r.Trace()
	if len(got) != len(want) {
		t.Fatalf("round-trip length %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestVirtualClockSpansAreDeterministic(t *testing.T) {
	run := func() Snapshot {
		fc := &fakeClock{}
		r := NewRegistry()
		r.SetClock(fc.clock())
		for i := uint64(0); i < 50; i++ {
			sp := r.StartSpan("stage", SpanKey{Pipeline: "p", Iteration: i})
			fc.now += time.Duration(i%7+1) * time.Millisecond
			sp.End(nil)
		}
		return r.Snapshot()
	}
	a, b := run(), run()
	if a.Histograms["span.stage{pipeline=p}"] != b.Histograms["span.stage{pipeline=p}"] {
		t.Fatal("virtual-clock histograms must be identical across identical runs")
	}
}
