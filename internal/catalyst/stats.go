package catalyst

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"colza/internal/bufpool"
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

// fold adds the finite samples of img's field to m. Non-finite samples are
// skipped: one NaN or Inf would spoil every later sum, mean and extremum,
// and a summary must encode as JSON.
func (m *runningMoments) fold(img *vtk.ImageData, field string) error {
	arr, err := img.PointArray(field)
	if err != nil {
		return err
	}
	for _, v := range arr.Data {
		f := float64(v)
		if !finite(f) {
			continue
		}
		if m.Count == 0 || f < m.Min {
			m.Min = f
		}
		if m.Count == 0 || f > m.Max {
			m.Max = f
		}
		m.Count++
		m.Sum += f
	}
	return nil
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// add merges another origin's moments into m (the run totals at execute).
func (m *runningMoments) add(o runningMoments) {
	if o.Count > 0 {
		if m.Count == 0 || o.Min < m.Min {
			m.Min = o.Min
		}
		if m.Count == 0 || o.Max > m.Max {
			m.Max = o.Max
		}
	}
	m.Count += o.Count
	m.Sum += o.Sum
}

// bounds is m's minimum and negated maximum, or +Inf twice (the identity
// of a minimum) when m has no samples.
func (m runningMoments) bounds() (lo, negHi float64) {
	if m.Count == 0 {
		return math.Inf(1), math.Inf(1)
	}
	return m.Min, -m.Max
}

// StatsPipeline is the paper's Section II-C example made concrete: "even
// a pipeline as simple as computing an average across the data received
// by multiple staging servers needs a reduction operation". It stages
// ImageData blocks and, at execute, runs exactly one reduction over the
// iteration's MoNA communicator, returning the global mean and extrema
// from every instance.
//
// It is also the repo's reference StatefulBackend: every deactivate folds
// the iteration's blocks into per-origin running moments, and Execute
// reduces those too into run_* summary keys (statistics over all
// completed iterations). The running map is what Export/ImportState move
// around when a server leaves or crashes, so the cumulative statistics
// survive any single server.
//
// The reduced record is eight little-endian words: float64 sums
// [sum, run_sum], int64 counts [count, run_count], and float64 minima
// [min, run_min, -max, -run_max]; reduceStats folds each group with its
// collectives op. Only finite samples count. min, max and mean are
// omitted while count is 0, as the run_* extrema and mean are while
// run_count is.
type StatsPipeline struct {
	staging[*vtk.ImageData]
	cfg     StatsConfig
	origin  string                    // unique id of this instance, the key of its own moments
	running map[string]runningMoments // origin id -> cumulative moments; under mu
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
		if err := decodeConfig("stats", cfg, &c); err != nil {
			return nil, err
		}
		if c.Field == "" {
			c.Field = "value"
		}
		return &StatsPipeline{
			staging: staging[*vtk.ImageData]{kind: "stats", blockType: "imagedata", decode: vtk.DecodeImageDataInto},
			cfg:     c,
			origin:  newOriginID(),
			running: make(map[string]runningMoments),
		}, nil
	})
}

// reduceStats folds one peer's stats record into acc (see StatsPipeline).
// A short record folds into acc's prefix, as the collectives ops do.
func reduceStats(acc, in []byte) []byte {
	span := func(b []byte, lo, hi int) []byte { return b[min(lo, len(b)):min(hi, len(b))] }
	collectives.SumFloat64(span(acc, 0, 16), span(in, 0, 16))
	collectives.SumInt64(span(acc, 16, 32), span(in, 16, 32))
	collectives.MinFloat64(span(acc, 32, 64), span(in, 32, 64))
	return acc
}

// Execute computes global field statistics across the staging area.
func (p *StatsPipeline) Execute(it uint64) (core.ExecResult, error) {
	p.mu.Lock()
	ctx, blocks, _, err := p.begin(it)
	// Run totals over completed iterations (the current one folds in at
	// deactivate), origins in ExportState's order so the sum's bits do not
	// depend on map order.
	var run runningMoments
	for _, id := range p.originsLocked() {
		run.add(p.running[id])
	}
	p.mu.Unlock()
	if err != nil {
		return core.ExecResult{}, err
	}
	defer p.end()
	var cur runningMoments
	for _, img := range blocks {
		if err := cur.fold(img, p.cfg.Field); err != nil {
			return core.ExecResult{}, err
		}
	}
	lo, negHi := cur.bounds()
	runLo, runNegHi := run.bounds()
	rec := make([]byte, 0, 64)
	for _, w := range [...]uint64{
		math.Float64bits(cur.Sum), math.Float64bits(run.Sum), uint64(cur.Count), uint64(run.Count),
		math.Float64bits(lo), math.Float64bits(runLo), math.Float64bits(negHi), math.Float64bits(runNegHi),
	} {
		rec = binary.LittleEndian.AppendUint64(rec, w)
	}
	rec, err = ctx.Comm.AllReduce(statsTag, rec, reduceStats)
	if err != nil {
		return core.ExecResult{}, err
	}
	f := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(rec[8*i:])) }
	count, runCount := int64(binary.LittleEndian.Uint64(rec[16:])), int64(binary.LittleEndian.Uint64(rec[24:]))
	out := map[string]float64{
		"count":     float64(count),
		"run_count": float64(runCount),
		"run_sum":   f(1),
		"rank":      float64(ctx.Rank),
		"size":      float64(ctx.Size),
	}
	if count > 0 {
		out["mean"], out["min"], out["max"] = f(0)/float64(count), f(4), -f(6)
	}
	if runCount > 0 {
		out["run_mean"], out["run_min"], out["run_max"] = f(1)/float64(runCount), f(5), -f(7)
	}
	if ctx.Comm.Size() > 1 {
		bufpool.Put(rec) // the all-reduce's; on one rank rec is ours
	}
	return core.ExecResult{Summary: out}, nil
}

// Deactivate folds the iteration into this instance's own running entry
// and releases the staged data. Iters advances even for an empty
// iteration, versioning every deactivate so a newer checkpoint always
// supersedes an older one.
func (p *StatsPipeline) Deactivate(uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.running[p.origin]
	m.Iters++
	for _, img := range p.blocks {
		_ = m.fold(img, p.cfg.Field) // a block without the field: Execute already reported it
	}
	p.running[p.origin] = m
	p.release()
	return nil
}

// originsLocked is the running map's origin ids, sorted. The caller holds
// mu.
func (p *StatsPipeline) originsLocked() []string {
	ids := make([]string, 0, len(p.running))
	for id := range p.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// The export format is deliberately not JSON: an entry without samples may
// hold non-finite extrema (they mean nothing there), which encoding/json
// rejects. "CZS1" | uint32 entry count | entries of
// (uint16 id length | id | Count | Sum | Min | Max | Iters), all
// little-endian, floats as IEEE-754 bits, sorted by id so equal state
// exports byte-identical blobs.
const statsStateMagic = "CZS1"

// ExportState serializes the origin-keyed running moments.
func (p *StatsPipeline) ExportState() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := p.originsLocked()
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
		if !finite(m.Sum) || m.Count > 0 && !(finite(m.Min) && finite(m.Max)) {
			return nil, fmt.Errorf("catalyst: stats state entry %q holds a non-finite moment", id)
		}
		if m.Count == 0 && m.Sum != 0 {
			// No fold writes a sum without values; Execute would add it to
			// run_sum against a run_count it does not move.
			return nil, fmt.Errorf("catalyst: stats state entry %q has a sum but no values", id)
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
	for id, m := range in {
		if cur, ok := p.running[id]; !ok || m.newer(cur) {
			p.running[id] = m
		}
	}
	return nil
}

// Destroy drops all state.
func (p *StatsPipeline) Destroy() error {
	p.staging.Destroy()
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.running)
	return nil
}
