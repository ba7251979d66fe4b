package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"colza/internal/obs"
)

// tracedRun is what the three rounds of a traced run leave behind.
type tracedRun struct {
	in     *inputs
	traced *round
	plain  []*round
	join   joinResult
	cals   []calibration
	ops    opCounts
}

// measureTraced runs three rounds: untraced, traced, untraced. Only the
// middle one has the client registry attached and the span recorder on; the
// outer two say how far apart two identical rounds land, which is what the
// tracing overhead has to be read against. The traced round's deployment
// then takes the join. Machine calibration runs between the rounds.
func measureTraced(w workload, opt runOptions) (*tracedRun, error) {
	in, err := w.generate(opt.seed, opt.tiny)
	if err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", w.name, err)
	}
	orc := oracle{}
	dur := time.Duration(opt.seconds / tracedRounds * float64(time.Second))
	t := &tracedRun{in: in, cals: []calibration{calibrate()}}
	for i := 0; i < tracedRounds; i++ {
		isTraced := i == tracedRounds/2
		r, err := runRound(w, in, orc, opt.tiny, isTraced, dur, opt.minIters)
		if err != nil {
			return nil, err
		}
		if isTraced {
			t.traced = r
			t.join, err = r.joinProbe()
		} else {
			t.plain = append(t.plain, r)
		}
		r.d.shutdown()
		if err != nil {
			return nil, err
		}
		t.ops.add(r.res.ops)
		t.cals = append(t.cals, calibrate())
	}
	return t, nil
}

// runTraced measures the per-layer metrics: the traced rounds, then the
// probes.
func runTraced(w workload, opt runOptions) (report, error) {
	t, err := measureTraced(w, opt)
	if err != nil {
		return report{}, err
	}
	rep := newReport(t.ops)
	if len(t.traced.res.samples) == 0 || len(pooled(t.plain)) == 0 {
		return rep, nil
	}
	probes, err := runProbes(opt.seed, opt.tiny)
	if err != nil {
		return report{}, err
	}
	rep.Metrics = perLayer(w, t, probes)
	if opt.traceOut != "" {
		if err := writeTrace(opt.traceOut, w, t.traced, rep.Metrics); err != nil {
			return report{}, err
		}
	}
	return rep, nil
}

// perLayer assembles every per-layer metric: in-run numbers from the
// traced round's samples and obs deltas, then the probes.
func perLayer(w workload, t *tracedRun, probes probeSet) map[string]metric {
	tr, join := t.traced, t.join
	samples := tr.res.samples
	n := float64(len(samples))
	cli := func(name string) float64 { return counterDelta(tr.res.client[0], tr.res.client[1], name) }
	srv := func(name string) float64 { return counterDelta(tr.res.server[0], tr.res.server[1], name) }
	srvHist := func(name, label string) obs.HistSnapshot {
		return histDelta(tr.res.server[0], tr.res.server[1], name, func(k string) bool { return strings.Contains(k, label) })
	}
	col := func(f func(iterSample) float64) float64 { return median(column(samples, f)) }

	m := map[string]metric{}
	for k, v := range probes {
		m[k] = v
	}
	m["core.activate_p50_s"] = metric{col(func(s iterSample) float64 { return s.activate }), "s"}
	m["core.deactivate_p50_s"] = metric{col(func(s iterSample) float64 { return s.deactivate }), "s"}
	m["core.flush_p50_s"] = metric{col(func(s iterSample) float64 { return s.flush }), "s"}
	m["core.stage_call_p50_us"] = metric{median(tr.res.stageCallUs), "us"}
	m["core.stage_mib_s"] = metric{quietest(windowsOf(samples), windowMedian(stageRateOf), true), "MiB/s"}
	m["core.execute_wall_p50_s"] = metric{quietest(windowsOf(samples), windowMedian(executeOf), false), "s"}
	m["core.execute_overhead_p50_s"] = metric{col(func(s iterSample) float64 { return s.execute - s.backendExec }), "s"}
	m["core.rpcs_per_iter"] = metric{cli("mercury.call.count") / n, "count"}
	m["core.stage_retries_per_iter"] = metric{cli("colza.stage.retries") / n, "count"}
	m["core.busy_retries_per_iter"] = metric{cli("core.client.retries.busy") / n, "count"}
	flushes := cli("colza.stage.batch.flushes")
	m["core.batch_flushes_per_iter"] = metric{flushes / n, "count"}
	perFlush := 0.0
	if flushes > 0 {
		perFlush = cli("colza.stage.batch.blocks") / flushes
	}
	m["core.batch_blocks_per_flush"] = metric{perFlush, "count"}
	m["core.join_to_pinned_s"] = metric{join.toPinned, "s"}
	m["core.first_iter_after_join_s"] = metric{join.firstIter, "s"}
	m["ssg.join_converge_s"] = metric{join.converge, "s"}

	// Request payloads leaving the client plus the bytes the servers pulled.
	m["mercury.wire_bytes_per_iter"] = metric{(cli("mercury.call.bytes.out") + srv("mercury.bulk.pull.bytes")) / n, "B"}
	m["mercury.bulk_pulls_per_iter"] = metric{srv("mercury.bulk.pull.count") / n, "count"}
	m["mercury.local_pulls_per_iter"] = metric{srv("na.shm.pull.local") / n, "count"}
	m["mercury.serve_stage_p50_us"] = metric{srvHist("mercury.serve.latency", "stage").Quantile(0.5) / 1e3, "us"}
	wait := srvHist("margo.pool.wait", "pool=data")
	m["margo.pool_wait_p50_us"] = metric{wait.Quantile(0.5) / 1e3, "us"}
	m["margo.pool_wait_p99_us"] = metric{wait.Quantile(0.99) / 1e3, "us"}
	m["margo.dispatch_p50_us"] = metric{srvHist("margo.dispatch.latency", "stage").Quantile(0.5) / 1e3, "us"}
	m["margo.shed_per_iter"] = metric{srv("margo.pool.shed") / n, "count"}
	m["na.shm_ring_stalls_per_iter"] = metric{(cli("na.shm.ring.stalls") + srv("na.shm.ring.stalls")) / n, "count"}
	m["na.tcp_fallback_count"] = metric{cli("na.route.tcp_fallback") + srv("na.route.tcp_fallback"), "count"}

	// Raw passthrough never enters the codec: its wire ratio is 1.
	ratio := 1.0
	if raw := cli("codec.bytes.in"); raw > 0 {
		ratio = cli("codec.bytes.out") / raw
	}
	m["codec.wire_ratio"] = metric{ratio, "ratio"}

	m["catalyst.extract_p50_s"] = metric{col(func(s iterSample) float64 { return s.extract }), "s"}
	m["catalyst.render_p50_s"] = metric{col(func(s iterSample) float64 { return s.render }), "s"}
	m["catalyst.composite_p50_s"] = metric{col(func(s iterSample) float64 { return s.composite }), "s"}
	m["catalyst.warmup_s"] = metric{tr.res.warmupS, "s"}
	// What the slowest rank's execute spent outside its named parts: waiting
	// behind the co-located rank at catalyst's compute gate, and the bounds
	// all-reduce. With it the parts and the overhead sum to the execute wall.
	m["catalyst.other_p50_s"] = metric{col(func(s iterSample) float64 {
		return s.backendExec - s.extract - s.render - s.composite - s.warmup
	}), "s"}

	walls := column(samples, wallOf)
	pct, tailS := tail(walls)
	m["iter.wall_tail_s"] = metric{tailS, "s"}
	m["iter.tail_pct"] = metric{pct, "%"}
	m["iter.samples"] = metric{n, "count"}
	m["iter.stage_share"] = metric{col(func(s iterSample) float64 { return (s.stage + s.flush) / s.wall }), "ratio"}
	m["iter.execute_share"] = metric{col(func(s iterSample) float64 { return s.execute / s.wall }), "ratio"}
	// Rounds are compared by their quietest windows, like the end-to-end
	// timings: a whole-round median says which round the machine disturbed.
	quietWall := func(r *round) float64 { return quietest(windowsOf(r.res.samples), windowMedian(wallOf), false) }
	var plain []float64
	for _, r := range t.plain {
		plain = append(plain, quietWall(r))
	}
	m["iter.round_spread"] = metric{spread(plain), "ratio"}
	base := mean(plain)
	m["trace.overhead_pct"] = metric{(quietWall(tr) - base) / base * 100, "%"}

	m["stage.explained_ratio"] = metric{explainedStage(w, t.in, tr, m), "ratio"}

	var memcpy, spin []float64
	for _, c := range t.cals {
		memcpy = append(memcpy, c.MemcpyMiBs)
		spin = append(spin, c.SpinMs)
	}
	m["machine.memcpy_mib_s"] = metric{median(memcpy), "MiB/s"}
	m["machine.spin_ms"] = metric{median(spin), "ms"}
	return m
}

// explainedStage rebuilds the stage wall from the probes: encode, one round
// trip per stage RPC, the pull, decode, and the backend's own decode. It is
// the parts-add-up check made from outside; the sink's CRC and the
// batcher's enqueue copy are not in it, so it reads below 1 on those.
func explainedStage(w workload, in *inputs, tr *round, m map[string]metric) float64 {
	bytes, blocks := in.bytesPerIter(), in.blocksPerIter()
	mib := bytes / (1 << 20)
	rpcs := blocks
	if w.batching {
		rpcs = m["core.batch_flushes_per_iter"].Value
	}
	size := "64k"
	if bytes/blocks >= 1<<20 {
		size = "4m"
	}
	wire := mib * m["codec.wire_ratio"].Value
	explained := rpcs*m["mercury.rpc_rtt_p50_us."+w.transport].Value/1e6 +
		wire/m["mercury.bulk_pull_mib_s."+w.transport+"."+size].Value
	if w.codec != "" {
		explained += mib/m["codec."+w.codec+".encode_mib_s"].Value + mib/m["codec."+w.codec+".decode_mib_s"].Value
	}
	switch w.reference {
	case "triangles":
		explained += mib / m["vtk.imagedata_decode_mib_s"].Value
	case "cells":
		explained += mib / m["vtk.ugrid_decode_mib_s"].Value
	}
	measured := median(column(tr.res.samples, func(s iterSample) float64 { return s.stage + s.flush }))
	return explained / measured
}

// --- elastic join ----------------------------------------------------------------

type joinResult struct {
	converge  float64 // third server started -> all three views show three members
	toPinned  float64 // ... -> an Activate pins three members
	firstIter float64 // wall of the first full iteration on three servers
}

// joinProbe grows the traced round's staging area by one server, the
// paper's elastic resize. Gossip timers drive it, so it is reported and
// never gated.
func (r *round) joinProbe() (joinResult, error) {
	var j joinResult
	it := uint64(warmupIters + len(r.res.samples) + 1)
	start := time.Now()
	s, err := r.d.addServer()
	if err != nil {
		return j, fmt.Errorf("join: %w", err)
	}
	j.converge = time.Since(start).Seconds()
	if err := r.d.createPipeline(s); err != nil {
		return j, fmt.Errorf("join: %w", err)
	}
	deadline := start.Add(10 * time.Second)
	for {
		view, err := r.d.handle.Activate(it)
		if r.apiErr("activate", it, err) {
			return j, fmt.Errorf("join: %w", err)
		}
		pinned := len(view.Members)
		r.apiErr("deactivate", it, r.d.handle.Deactivate(it))
		it++
		if pinned == len(r.d.servers) {
			break
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("join: activate still pins %d members", pinned)
		}
	}
	j.toPinned = time.Since(start).Seconds()
	r.checkImage = false
	sample, ok := r.iterate(it, false)
	if !ok {
		return j, fmt.Errorf("join: first iteration on %d servers failed", len(r.d.servers))
	}
	j.firstIter = sample.wall
	return j, nil
}

// --- machine calibration -----------------------------------------------------------

// calibration is two fixed kernels that do not touch the program: when
// they move, the machine moved (the prototype saw the same binary run 1.7x
// slower for minutes at a time on a shared box).
type calibration struct {
	MemcpyMiBs float64 `json:"memcpy_mib_s"`
	SpinMs     float64 `json:"spin_ms"`
}

const (
	// Source and destination are 64 MiB each. The reference VM reports its
	// host's whole L3 (260 MiB, shared by every tenant); results.json prints
	// both sizes.
	memcpyBytes = 64 << 20
	spinSteps   = 20_000_000
)

var (
	memcpySrc, memcpyDst []byte
	spinSink             uint64
)

func calibrate() calibration {
	if memcpySrc == nil {
		memcpySrc, memcpyDst = make([]byte, memcpyBytes), make([]byte, memcpyBytes)
		copy(memcpyDst, memcpySrc) // fault the pages in
	}
	best := 0.0
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		copy(memcpyDst, memcpySrc)
		best = max(best, mibPerSec(memcpyBytes, time.Since(t0)))
	}
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < spinSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return calibration{MemcpyMiBs: best, SpinMs: float64(time.Since(t0)) / 1e6}
}

// --- trace file --------------------------------------------------------------------

// writeTrace writes the traced round: one JSON line per span, then the
// client and server obs-counter deltas and the per-layer metrics.
func writeTrace(dir string, w workload, tr *round, metrics map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+w.name+".jsonl"))
	if err != nil {
		return err
	}
	out := bufio.NewWriterSize(f, 1<<20)
	for _, s := range tr.res.spans {
		parent := `"iteration"`
		if s.name == "iteration" {
			parent = "null"
		}
		fmt.Fprintf(out, `{"trace":%d,"span":%q,"parent":%s,"start_ns":%d,"end_ns":%d}`+"\n",
			s.iter, s.name, parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	counters := func(pair [2]obs.Snapshot) map[string]int64 {
		d := map[string]int64{}
		for k, v := range pair[1].Counters {
			if v != pair[0].Counters[k] {
				d[k] = v - pair[0].Counters[k]
			}
		}
		return d
	}
	for _, rec := range []any{
		map[string]any{"client_counters": counters(tr.res.client)},
		map[string]any{"server_counters": counters(tr.res.server)},
		map[string]any{"per_layer": metrics},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Close()
			return err
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	if err := out.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
