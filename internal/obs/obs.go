// Package obs is the observability layer of the stack: counters, gauges,
// duration histograms with percentile estimation (every histogram records
// nanoseconds), and a span/trace API keyed by (pipeline, iteration, rank).
// The paper's entire evaluation (Figs. 6-12)
// rests on timing instrumentation — per-iteration stage/execute latency,
// rescaling cost, membership-change windows — and this package is what the
// RPC layer (mercury), the service runtime (margo), Colza itself (core), and
// the staging baselines record into.
//
// Design constraints, in order:
//
//   - stdlib only, no allocation on the metric hot path beyond the first
//     lookup (instruments are cached by composed key and updated with
//     atomics);
//   - an injectable Clock so DES-backed runs (internal/dessim) record
//     virtual time and real runs record wall time — histograms from two
//     same-seed DES runs are byte-identical;
//   - mergeable histogram snapshots, so per-server registries can be
//     aggregated by benchmarks and dashboards.
//
// Metric naming scheme: dotted lowercase names qualified by the owning
// layer ("mercury.call.count", "colza.stage.retries", "span.stage"), with
// an optional brace-delimited label set appended by Key: "name{k=v,k=v}".
// Label values come from a bounded vocabulary (RPC names, error classes,
// pipeline names) — never iteration numbers or addresses — so cardinality
// stays small.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock produces the current time as an offset from an arbitrary fixed
// epoch. Wall-clock registries use process start as the epoch; DES-backed
// registries use virtual time (dessim.Sim.Now is already a Clock).
type Clock func() time.Duration

var processStart = time.Now()

// WallClock returns the real-time clock, measured from process start.
func WallClock() Clock {
	return func() time.Duration { return time.Since(processStart) }
}

// Key composes a metric key from a name and label pairs:
// Key("mercury.call.count", "rpc", "colza::stage") is
// "mercury.call.count{rpc=colza::stage}". Labels must come in pairs; a
// trailing odd label is ignored.
func Key(name string, labels ...string) string {
	if len(labels) < 2 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16)
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteByte('=')
		b.WriteString(labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value with a high-water mark (queue depths,
// in-flight handler counts).
type Gauge struct{ v, max atomic.Int64 }

// Set stores v and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.bumpMax(v)
}

// Add applies a delta and returns the new value, updating the high-water
// mark.
func (g *Gauge) Add(d int64) int64 {
	n := g.v.Add(d)
	g.bumpMax(n)
	return n
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max reads the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

func (g *Gauge) bumpMax(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Registry holds one component's instruments and its clock. Instruments
// are created on first use and live for the registry's lifetime; all
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	clock    Clock
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// spanHists finds a span's duration histogram (also in hists) without
	// composing its key string; see spanHistogram.
	spanHists map[spanHistKey]*Histogram
	trace     traceBuf
}

// NewRegistry creates an empty registry on the wall clock.
func NewRegistry() *Registry {
	return &Registry{
		clock:     WallClock(),
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		spanHists: make(map[spanHistKey]*Histogram),
		trace:     traceBuf{cap: defaultTraceCap},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry, used by components that were
// not handed a dedicated one.
func Default() *Registry { return defaultRegistry }

// SetClock replaces the registry's time source (virtual time for
// DES-backed runs). It should be called before any spans start.
func (r *Registry) SetClock(c Clock) {
	if c == nil {
		return
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
}

// Now reads the registry's clock.
func (r *Registry) Now() time.Duration {
	r.mu.RLock()
	c := r.clock
	r.mu.RUnlock()
	return c()
}

// Counter returns (creating if needed) the counter for the composed key.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	k := Key(name, labels...)
	r.mu.RLock()
	c, ok := r.counters[k]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[k]; !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for the composed key.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	k := Key(name, labels...)
	r.mu.RLock()
	g, ok := r.gauges[k]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[k]; !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram for the composed
// key.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	k := Key(name, labels...)
	r.mu.RLock()
	h, ok := r.hists[k]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[k]; !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// GaugeSnapshot is a gauge's value and high-water mark at snapshot time.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a consistent-enough copy of every instrument (individual
// instruments are read atomically; the set is read under the registry
// lock).
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot  `json:"histograms,omitempty"`
}

// Snapshot captures every instrument's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// WriteText dumps the registry in the stable text format served by the
// colza-admin metrics RPC and printed by `colza-ctl metrics`.
func (r *Registry) WriteText(w io.Writer) error { return r.Snapshot().WriteText(w) }

// WriteText renders the snapshot as sorted, one-instrument-per-line text;
// a histogram's quantiles print as durations:
//
//	counter mercury.call.count{rpc=colza::stage} 42
//	gauge   margo.handlers.inflight 0 max=7
//	hist    span.stage{pipeline=viz} count=42 p50=1.2ms p95=3.4ms p99=5ms
func (s Snapshot) WriteText(w io.Writer) error {
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", k, s.Counters[k]); err != nil {
			return err
		}
	}
	keys = keys[:0]
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := s.Gauges[k]
		if _, err := fmt.Fprintf(w, "gauge %s %d max=%d\n", k, g.Value, g.Max); err != nil {
			return err
		}
	}
	keys = keys[:0]
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "hist %s count=%d p50=%v p95=%v p99=%v\n", k, h.Count,
			time.Duration(h.Quantile(0.50)), time.Duration(h.Quantile(0.95)), time.Duration(h.Quantile(0.99))); err != nil {
			return err
		}
	}
	return nil
}
