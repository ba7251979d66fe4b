package obs

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKeyComposition(t *testing.T) {
	cases := []struct {
		name   string
		labels []string
		want   string
	}{
		{"a.b", nil, "a.b"},
		{"a.b", []string{"rpc", "stage"}, "a.b{rpc=stage}"},
		{"a.b", []string{"rpc", "stage", "class", "timeout"}, "a.b{rpc=stage,class=timeout}"},
		{"a.b", []string{"odd"}, "a.b"},
	}
	for _, c := range cases {
		if got := Key(c.name, c.labels...); got != c.want {
			t.Errorf("Key(%q, %v) = %q, want %q", c.name, c.labels, got, c.want)
		}
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count", "k", "v")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("x.count", "k", "v") != c {
		t.Fatal("same key should return the same counter")
	}
	if r.Counter("x.count", "k", "w") == c {
		t.Fatal("different label should return a different counter")
	}

	g := r.Gauge("x.depth")
	g.Add(3)
	g.Add(4)
	g.Add(-6)
	if g.Value() != 1 || g.Max() != 7 {
		t.Fatalf("gauge = (%d, max %d), want (1, max 7)", g.Value(), g.Max())
	}
	g.Set(2)
	if g.Value() != 2 || g.Max() != 7 {
		t.Fatalf("after Set: (%d, max %d)", g.Value(), g.Max())
	}
}

func TestHistogramCountSumExact(t *testing.T) {
	var h Histogram
	var sum int64
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
		sum += v
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != sum {
		t.Fatalf("count=%d sum=%d, want 1000/%d", s.Count, s.Sum, sum)
	}
}

// Quantile estimates must land within the power-of-two bucket containing
// the true quantile: the estimate is within a factor of two of truth.
func TestHistogramQuantileWithinBucketBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	values := make([]int64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := int64(rng.ExpFloat64() * 1e6) // microsecond-ish scale in ns
		if v < 1 {
			v = 1
		}
		h.Observe(v)
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		idx := int(q*float64(len(values))) - 1
		if idx < 0 {
			idx = 0
		}
		truth := float64(values[idx])
		got := s.Quantile(q)
		if got < truth/2 || got > truth*2 {
			t.Errorf("q%.0f: estimate %v out of factor-2 band around true %v", q*100, got, truth)
		}
	}
	// Monotonicity.
	if !(s.Quantile(0.5) <= s.Quantile(0.95) && s.Quantile(0.95) <= s.Quantile(0.99)) {
		t.Fatalf("quantiles not monotone: %v %v %v", s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99))
	}
}

func TestHistogramQuantileDegenerate(t *testing.T) {
	var empty Histogram
	if got := empty.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(1500) // all in bucket [1024, 2048)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		got := s.Quantile(q)
		if got < 1024 || got > 2048 {
			t.Errorf("q=%v: %v outside the single occupied bucket", q, got)
		}
	}
	var z Histogram
	z.Observe(0)
	z.Observe(-5)
	if s := z.Snapshot(); s.Buckets[0] != 2 {
		t.Fatalf("non-positive values must land in bucket 0, got %v", s.Buckets)
	}
}

// Merging two snapshots must be exactly equivalent to having observed
// both streams in one histogram.
func TestHistogramMergeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var a, b, both Histogram
	for i := 0; i < 2000; i++ {
		v := int64(rng.Intn(1 << 20))
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	merged := a.Snapshot().Merge(b.Snapshot())
	want := both.Snapshot()
	if merged != want {
		t.Fatalf("merge mismatch:\nmerged=%+v\nwant=%+v", merged, want)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if merged.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q=%v differs after merge", q)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*per + i))
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count=%d, want %d", s.Count, workers*per)
	}
	var bucketTotal int64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestSnapshotAndTextDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("mercury.call.count", "rpc", "colza::stage").Add(42)
	r.Gauge("margo.handlers.inflight").Add(3)
	r.Histogram("span.stage", "pipeline", "viz").Observe(int64(2 * time.Millisecond))
	r.Histogram("margo.pool.wait", "pool", "data").Observe(int64(1800 * time.Nanosecond))

	snap := r.Snapshot()
	if snap.Counters["mercury.call.count{rpc=colza::stage}"] != 42 {
		t.Fatalf("snapshot counters: %v", snap.Counters)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"counter mercury.call.count{rpc=colza::stage} 42",
		"gauge margo.handlers.inflight 3 max=3",
		"hist span.stage{pipeline=viz} count=1 p50=",
		"hist margo.pool.wait{pool=data} count=1 p50=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text dump missing %q:\n%s", want, out)
		}
	}
	// Every histogram records nanoseconds, whatever its name, so every
	// quantile renders as a duration.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "hist ") {
			continue
		}
		for _, f := range strings.Fields(line)[3:] {
			q := f[strings.Index(f, "=")+1:]
			if d, err := time.ParseDuration(q); err != nil || d <= 0 {
				t.Errorf("%q: quantile %q is not a duration", line, q)
			}
		}
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Counter("c", "w", string(rune('a'+w%4))).Inc()
				r.Histogram("h").Observe(int64(i))
				r.Gauge("g").Add(1)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	var total int64
	for _, v := range snap.Counters {
		total += v
	}
	if total != 8*500 {
		t.Fatalf("counter total %d, want %d", total, 8*500)
	}
	if snap.Histograms["h"].Count != 8*500 {
		t.Fatalf("hist count %d", snap.Histograms["h"].Count)
	}
}
