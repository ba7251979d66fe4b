package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// defaultTraceCap bounds the in-memory trace ring; older spans are dropped
// once it fills (the drop count is kept so consumers can tell).
const defaultTraceCap = 8192

// SpanKey identifies what a span measured: which pipeline, which
// iteration, on which rank. Rank -1 means "the client" (the simulation
// side has no staging rank).
type SpanKey struct {
	Pipeline  string
	Iteration uint64
	Rank      int
}

// SpanRecord is one completed span as stored in the trace and exported as
// a JSON line. Times are offsets from the registry clock's epoch, so
// DES-backed traces carry virtual time.
type SpanRecord struct {
	Name      string `json:"name"`
	Pipeline  string `json:"pipeline,omitempty"`
	Iteration uint64 `json:"iteration"`
	Rank      int    `json:"rank"`
	StartNS   int64  `json:"start_ns"`
	DurNS     int64  `json:"dur_ns"`
	Err       string `json:"err,omitempty"`
}

// Span is an in-progress measurement. End completes it: the duration goes
// into the histogram "span.<name>{pipeline=...}" and the record into the
// trace ring.
type Span struct {
	r     *Registry
	name  string
	key   SpanKey
	start time.Duration
}

// StartSpan begins a span on the registry clock.
func (r *Registry) StartSpan(name string, key SpanKey) *Span {
	if r == nil {
		return nil
	}
	return &Span{r: r, name: name, key: key, start: r.Now()}
}

// End completes the span, recording err (nil for success), and returns
// the measured duration. It is safe on a nil span.
func (s *Span) End(err error) time.Duration {
	if s == nil || s.r == nil {
		return 0
	}
	dur := s.r.Now() - s.start
	if dur < 0 {
		dur = 0
	}
	s.r.spanHistogram(s.name, s.key.Pipeline).Observe(int64(dur))
	rec := SpanRecord{
		Name:      s.name,
		Pipeline:  s.key.Pipeline,
		Iteration: s.key.Iteration,
		Rank:      s.key.Rank,
		StartNS:   int64(s.start),
		DurNS:     int64(dur),
	}
	if err != nil {
		rec.Err = err.Error()
		s.r.Counter("span."+s.name+".errors", pipelineLabel(s.key.Pipeline)...).Inc()
	}
	s.r.trace.append(rec)
	return dur
}

// pipelineLabel is the label list of a span instrument: none for a span
// without a pipeline.
func pipelineLabel(pipeline string) []string {
	if pipeline == "" {
		return nil
	}
	return []string{"pipeline", pipeline}
}

type spanHistKey struct{ name, pipeline string }

// spanHistogram returns the histogram "span.<name>{pipeline=...}". A span
// ends once or twice per staged block, so the composed-key lookup (two
// string builds) is paid once per (name, pipeline) rather than per span.
func (r *Registry) spanHistogram(name, pipeline string) *Histogram {
	k := spanHistKey{name, pipeline}
	r.mu.RLock()
	h := r.spanHists[k]
	r.mu.RUnlock()
	if h == nil {
		h = r.Histogram("span."+name, pipelineLabel(pipeline)...)
		r.mu.Lock()
		r.spanHists[k] = h
		r.mu.Unlock()
	}
	return h
}

// traceBuf is a mutex-guarded ring of completed spans. recs grows by append
// until it holds cap records; from then on head is the oldest record's index
// and a new span overwrites it, so an append costs the same full or not.
type traceBuf struct {
	mu      sync.Mutex
	cap     int
	recs    []SpanRecord
	head    int
	dropped int64
}

func (t *traceBuf) append(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cap <= 0 {
		t.cap = defaultTraceCap
	}
	if len(t.recs) < t.cap {
		t.recs = append(t.recs, rec)
		return
	}
	t.recs[t.head] = rec
	t.head = (t.head + 1) % len(t.recs)
	t.dropped++
}

// newest copies out the newest n retained records (all of them when fewer
// are held), oldest first. The caller holds mu.
func (t *traceBuf) newest(n int) []SpanRecord {
	skip := max(len(t.recs)-n, 0)
	out := make([]SpanRecord, 0, len(t.recs)-skip)
	for i := skip; i < len(t.recs); i++ {
		out = append(out, t.recs[(t.head+i)%len(t.recs)])
	}
	return out
}

// SetTraceCapacity resizes the trace ring (existing newest records are
// kept). Capacity below 1 is treated as 1.
func (r *Registry) SetTraceCapacity(n int) {
	if n < 1 {
		n = 1
	}
	t := &r.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropped += int64(max(len(t.recs)-n, 0))
	t.recs, t.head, t.cap = t.newest(n), 0, n
}

// Trace returns a copy of the retained spans in completion order.
func (r *Registry) Trace() []SpanRecord {
	t := &r.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.newest(len(t.recs))
}

// TraceDropped reports how many spans the ring has evicted.
func (r *Registry) TraceDropped() int64 {
	t := &r.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteTraceJSON exports the trace as JSON lines (one SpanRecord per
// line), the structured format internal/bench and the e2e chaos suite
// consume to assert timing-shaped invariants.
func (r *Registry) WriteTraceJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.Trace() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// ParseTraceJSON reverses WriteTraceJSON.
func ParseTraceJSON(rd io.Reader) ([]SpanRecord, error) {
	dec := json.NewDecoder(rd)
	var out []SpanRecord
	for dec.More() {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}
