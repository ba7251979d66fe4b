package catalyst

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"

	"colza/internal/collectives"
	"colza/internal/core"
	"colza/internal/vtk"
)

// StatsPipelineType is the registered name of the field-statistics
// pipeline.
const StatsPipelineType = "catalyst/stats"

// StatsConfig configures the statistics pipeline.
type StatsConfig struct {
	Field string `json:"field"`
}

// runningMoments is one instance's cumulative contribution to the
// cross-iteration statistics, keyed by the origin instance id in
// StatsPipeline.running. Keeping the map origin-keyed — instead of merging
// into one scalar set — makes ImportState a per-origin join where the
// higher (Iters, Count, ...) version wins, so a double delivery (an origin's
// moments arriving inside two peers' maps, or again in a newer round of a
// peer merged before) replaces rather than double-counts.
type runningMoments struct {
	Count int64
	Sum   float64
	Min   float64 // valid only when Count > 0
	Max   float64
	Iters uint64 // iterations folded in; the version number on merge
}

// newer is the total order used when merging two versions of the same
// origin's entry: strictly larger (Iters, Count, Sum, Min, Max) wins, so
// merge is commutative, associative, and idempotent.
func (m runningMoments) newer(than runningMoments) bool {
	if m.Iters != than.Iters {
		return m.Iters > than.Iters
	}
	if m.Count != than.Count {
		return m.Count > than.Count
	}
	if m.Sum != than.Sum {
		return m.Sum > than.Sum
	}
	if m.Min != than.Min {
		return m.Min > than.Min
	}
	return m.Max > than.Max
}

// stagedBlock keeps the block id next to the decoded data so the
// deactivate-time fold can deduplicate re-staged blocks (staging is
// at-least-once: a client retry may deliver a block twice).
type stagedBlock struct {
	id  int
	img *vtk.ImageData
}

// StatsPipeline is the paper's Section II-C example made concrete: "even
// a pipeline as simple as computing an average across the data received
// by multiple staging servers needs a reduction operation". It stages
// ImageData blocks and, at execute, allreduces (sum, count, min, max) of
// the configured field over the iteration's MoNA communicator, returning
// the global mean and extrema from every instance.
//
// It is also the repo's reference StatefulBackend: every deactivate folds
// the iteration's blocks into per-origin running moments, which Execute
// additionally allreduces into run_* summary keys (statistics over all
// completed iterations). The running map is what Export/ImportState move
// around when a server leaves or crashes, so the cumulative statistics
// survive any single server.
type StatsPipeline struct {
	cfg    StatsConfig
	origin string // unique id of this instance, the key of its own moments

	mu      sync.Mutex
	ctx     core.IterationContext
	active  bool
	staged  map[uint64][]stagedBlock
	running map[string]runningMoments // origin id -> cumulative moments
}

var (
	_ core.Backend         = (*StatsPipeline)(nil)
	_ core.StatefulBackend = (*StatsPipeline)(nil)
)

// newOriginID mints the instance id under which this pipeline's running
// moments travel. Random rather than address-derived: a replacement
// instance on a reused address must not collide with the state it is
// about to import.
func newOriginID() string {
	var b [8]byte
	_, _ = crand.Read(b[:]) // never fails on supported platforms
	return hex.EncodeToString(b[:])
}

func registerStats() {
	core.RegisterPipelineType(StatsPipelineType, func(cfg json.RawMessage) (core.Backend, error) {
		var c StatsConfig
		if len(cfg) > 0 {
			if err := json.Unmarshal(cfg, &c); err != nil {
				return nil, fmt.Errorf("catalyst: stats config: %w", err)
			}
		}
		if c.Field == "" {
			c.Field = "value"
		}
		return &StatsPipeline{
			cfg:     c,
			origin:  newOriginID(),
			running: make(map[string]runningMoments),
		}, nil
	})
}

// Activate pins the iteration context.
func (p *StatsPipeline) Activate(ctx core.IterationContext) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		return fmt.Errorf("catalyst: stats pipeline already active")
	}
	p.ctx = ctx
	p.active = true
	if p.staged == nil {
		p.staged = make(map[uint64][]stagedBlock)
	}
	if p.running == nil {
		p.running = make(map[string]runningMoments)
	}
	return nil
}

// Stage decodes and retains one ImageData block. A re-staged block id
// replaces the earlier copy.
func (p *StatsPipeline) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	if meta.Type != "" && meta.Type != "imagedata" {
		return fmt.Errorf("catalyst: stats pipeline cannot stage %q blocks", meta.Type)
	}
	img, err := vtk.DecodeImageData(data)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active || p.ctx.Iteration != it {
		return fmt.Errorf("catalyst: stage outside active iteration %d", it)
	}
	for i, sb := range p.staged[it] {
		if sb.id == meta.BlockID {
			p.staged[it][i].img = img
			return nil
		}
	}
	p.staged[it] = append(p.staged[it], stagedBlock{id: meta.BlockID, img: img})
	return nil
}

// Execute computes global field statistics across the staging area.
func (p *StatsPipeline) Execute(it uint64) (core.ExecResult, error) {
	p.mu.Lock()
	if !p.active || p.ctx.Iteration != it {
		p.mu.Unlock()
		return core.ExecResult{}, fmt.Errorf("catalyst: execute outside active iteration %d", it)
	}
	ctx := p.ctx
	blocks := p.staged[it]
	field := p.cfg.Field
	// Local running totals (completed iterations only; the current
	// iteration folds in at deactivate).
	var runCount int64
	var runSum float64
	runLo := math.Inf(1)
	runHi := math.Inf(-1)
	for _, m := range p.running {
		runCount += m.Count
		runSum += m.Sum
		if m.Count > 0 {
			if m.Min < runLo {
				runLo = m.Min
			}
			if m.Max > runHi {
				runHi = m.Max
			}
		}
	}
	p.mu.Unlock()

	// Local moments.
	var sum float64
	var count int64
	lo := float32(math.Inf(1))
	hi := float32(math.Inf(-1))
	for _, blk := range blocks {
		arr, err := blk.img.PointArray(field)
		if err != nil {
			return core.ExecResult{}, err
		}
		for _, v := range arr.Data {
			sum += float64(v)
			count++
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}

	// Global reduction: [sum f64 | count i64] summed, extrema min/maxed.
	acc := make([]byte, 16)
	binary.LittleEndian.PutUint64(acc, math.Float64bits(sum))
	binary.LittleEndian.PutUint64(acc[8:], uint64(count))
	sums, err := ctx.Comm.AllReduce(6200, acc, func(a, in []byte) []byte {
		collectives.SumFloat64(a[:8], in[:8])
		collectives.SumInt64(a[8:], in[8:])
		return a
	})
	if err != nil {
		return core.ExecResult{}, err
	}
	loBuf := make([]byte, 4)
	binary.LittleEndian.PutUint32(loBuf, math.Float32bits(lo))
	loOut, err := ctx.Comm.AllReduce(6201, loBuf, collectives.MinFloat32)
	if err != nil {
		return core.ExecResult{}, err
	}
	hiBuf := make([]byte, 4)
	binary.LittleEndian.PutUint32(hiBuf, math.Float32bits(hi))
	hiOut, err := ctx.Comm.AllReduce(6202, hiBuf, collectives.MaxFloat32)
	if err != nil {
		return core.ExecResult{}, err
	}

	// Same shape for the running totals (tags 6210-6212, float64 extrema).
	rAcc := make([]byte, 16)
	binary.LittleEndian.PutUint64(rAcc, math.Float64bits(runSum))
	binary.LittleEndian.PutUint64(rAcc[8:], uint64(runCount))
	rSums, err := ctx.Comm.AllReduce(6210, rAcc, func(a, in []byte) []byte {
		collectives.SumFloat64(a[:8], in[:8])
		collectives.SumInt64(a[8:], in[8:])
		return a
	})
	if err != nil {
		return core.ExecResult{}, err
	}
	rLoBuf := make([]byte, 8)
	binary.LittleEndian.PutUint64(rLoBuf, math.Float64bits(runLo))
	rLoOut, err := ctx.Comm.AllReduce(6211, rLoBuf, minFloat64)
	if err != nil {
		return core.ExecResult{}, err
	}
	rHiBuf := make([]byte, 8)
	binary.LittleEndian.PutUint64(rHiBuf, math.Float64bits(runHi))
	rHiOut, err := ctx.Comm.AllReduce(6212, rHiBuf, maxFloat64)
	if err != nil {
		return core.ExecResult{}, err
	}

	gSum := math.Float64frombits(binary.LittleEndian.Uint64(sums))
	gCount := int64(binary.LittleEndian.Uint64(sums[8:]))
	mean := 0.0
	if gCount > 0 {
		mean = gSum / float64(gCount)
	}
	gRunSum := math.Float64frombits(binary.LittleEndian.Uint64(rSums))
	gRunCount := int64(binary.LittleEndian.Uint64(rSums[8:]))
	out := map[string]float64{
		"count": float64(gCount),
		"mean":  mean,
		"min":   float64(math.Float32frombits(binary.LittleEndian.Uint32(loOut))),
		"max":   float64(math.Float32frombits(binary.LittleEndian.Uint32(hiOut))),
		"rank":  float64(ctx.Rank),
		"size":  float64(ctx.Size),
	}
	out["run_count"] = float64(gRunCount)
	out["run_sum"] = gRunSum
	if gRunCount > 0 {
		// Extrema are only meaningful with data; omitting them on an empty
		// history also keeps infinities out of the JSON-encoded summary.
		out["run_mean"] = gRunSum / float64(gRunCount)
		out["run_min"] = math.Float64frombits(binary.LittleEndian.Uint64(rLoOut))
		out["run_max"] = math.Float64frombits(binary.LittleEndian.Uint64(rHiOut))
	}
	return core.ExecResult{Summary: out}, nil
}

func minFloat64(a, in []byte) []byte {
	av := math.Float64frombits(binary.LittleEndian.Uint64(a))
	iv := math.Float64frombits(binary.LittleEndian.Uint64(in))
	if iv < av {
		binary.LittleEndian.PutUint64(a, math.Float64bits(iv))
	}
	return a
}

func maxFloat64(a, in []byte) []byte {
	av := math.Float64frombits(binary.LittleEndian.Uint64(a))
	iv := math.Float64frombits(binary.LittleEndian.Uint64(in))
	if iv > av {
		binary.LittleEndian.PutUint64(a, math.Float64bits(iv))
	}
	return a
}

// Deactivate folds the iteration into the running moments and releases the
// staged data.
func (p *StatsPipeline) Deactivate(it uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.foldLocked(it)
	delete(p.staged, it)
	p.active = false
	return nil
}

// foldLocked folds one iteration's staged blocks into this instance's own
// running entry. Iters advances even for an empty iteration, versioning
// every deactivate so a newer checkpoint always supersedes an older one.
func (p *StatsPipeline) foldLocked(it uint64) {
	if p.running == nil {
		p.running = make(map[string]runningMoments)
	}
	m := p.running[p.origin]
	m.Iters++
	for _, sb := range p.staged[it] {
		arr, err := sb.img.PointArray(p.cfg.Field)
		if err != nil {
			continue // field absent from this block; Execute already reported it
		}
		for _, v := range arr.Data {
			f := float64(v)
			if m.Count == 0 {
				m.Min, m.Max = f, f
			} else {
				if f < m.Min {
					m.Min = f
				}
				if f > m.Max {
					m.Max = f
				}
			}
			m.Count++
			m.Sum += f
		}
	}
	p.running[p.origin] = m
}

// The export format is deliberately not JSON: running moments legitimately
// hold non-finite floats (a fresh entry's extrema), which encoding/json
// rejects. "CZS1" | uint32 entry count | entries of
// (uint16 id length | id | Count | Sum | Min | Max | Iters), all
// little-endian, floats as IEEE-754 bits, sorted by id so equal state
// exports byte-identical blobs.
const statsStateMagic = "CZS1"

// ExportState serializes the origin-keyed running moments.
func (p *StatsPipeline) ExportState() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]string, 0, len(p.running))
	for id := range p.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf := make([]byte, 0, 8+len(ids)*58)
	buf = append(buf, statsStateMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		m := p.running[id]
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(id)))
		buf = append(buf, id...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Count))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Sum))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Min))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Max))
		buf = binary.LittleEndian.AppendUint64(buf, m.Iters)
	}
	return buf, nil
}

const statsStateMaxEntries = 1 << 16

func parseStatsState(data []byte) (map[string]runningMoments, error) {
	if len(data) < 8 || string(data[:4]) != statsStateMagic {
		return nil, fmt.Errorf("catalyst: not a stats state blob")
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if n > statsStateMaxEntries {
		return nil, fmt.Errorf("catalyst: stats state entry count %d too large", n)
	}
	out := make(map[string]runningMoments, n)
	off := 8
	for i := uint32(0); i < n; i++ {
		if len(data)-off < 2 {
			return nil, fmt.Errorf("catalyst: truncated stats state")
		}
		idLen := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if idLen == 0 || len(data)-off < idLen+40 {
			return nil, fmt.Errorf("catalyst: truncated stats state")
		}
		id := string(data[off : off+idLen])
		off += idLen
		var m runningMoments
		m.Count = int64(binary.LittleEndian.Uint64(data[off:]))
		m.Sum = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:]))
		m.Min = math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:]))
		m.Max = math.Float64frombits(binary.LittleEndian.Uint64(data[off+24:]))
		m.Iters = binary.LittleEndian.Uint64(data[off+32:])
		off += 40
		if m.Count < 0 {
			return nil, fmt.Errorf("catalyst: stats state entry %q has negative count", id)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("catalyst: stats state repeats entry %q", id)
		}
		out[id] = m
	}
	if off != len(data) {
		return nil, fmt.Errorf("catalyst: trailing bytes in stats state")
	}
	return out, nil
}

// ImportState merges a peer's running moments into this instance. The
// merge is per-origin, newest version wins (runningMoments.newer), so
// meeting an origin's moments again — the provider imports one checkpoint
// round once, but a peer's map carries what that peer imported before — is
// a no-op rather than a double count.
func (p *StatsPipeline) ImportState(data []byte) error {
	in, err := parseStatsState(data)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running == nil {
		p.running = make(map[string]runningMoments)
	}
	for id, m := range in {
		if cur, ok := p.running[id]; !ok || m.newer(cur) {
			p.running[id] = m
		}
	}
	return nil
}

// Destroy drops all state.
func (p *StatsPipeline) Destroy() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.staged = nil
	p.running = nil
	p.active = false
	return nil
}
