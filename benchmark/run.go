package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"colza/internal/core"
	"colza/internal/obs"
)

const warmupIters = 3

// span is one timed call into the program, recorded by the benchmark from
// outside. Spans of one iteration share its number as their trace id; the
// root span is "iteration" and every other span is its child.
type span struct {
	iter       uint64
	name       string
	start, end time.Duration // since the round's first measured iteration
}

// iterSample is one measured iteration, in seconds. The five phase walls
// are taken from contiguous timestamps, so they sum to wall exactly.
type iterSample struct {
	wall, activate, stage, flush, execute, deactivate float64
	// When the iteration returned, since the round's first measured
	// iteration, and the process's user+sys CPU since then: windows are cut
	// from these.
	end, cpu float64
	// The slowest rank's own report (ExecResult.Summary).
	backendExec, extract, render, composite, warmup float64
	bytes                                           float64
}

// opCounts feeds failed_ops_ratio: API calls and their errors, oracle
// checks and their mismatches.
type opCounts struct {
	calls, errs, checks, mismatches int
}

func (o *opCounts) add(p opCounts) {
	o.calls += p.calls
	o.errs += p.errs
	o.checks += p.checks
	o.mismatches += p.mismatches
}

func (o opCounts) attempted() int { return o.calls + o.checks }
func (o opCounts) failed() int    { return o.errs + o.mismatches }

// oracle holds what must stay equal across iterations of one run: the
// hash of the rank-0 image of each ring slot.
type oracle map[int][sha256.Size]byte

// roundResult is everything one round (fresh deployment, warm-up, measured
// loop) produced.
type roundResult struct {
	setupS  float64
	warmupS float64 // the backend's first-execute warm-up, paid inside setupS
	samples []iterSample
	mallocs float64 // runtime.MemStats.Mallocs over the measured loop
	// High-water mark of the process's resident set over the round.
	peakRSSMiB float64
	ops        opCounts
	// Traced rounds only.
	stageCallUs    []float64
	spans          []span
	client, server [2]obs.Snapshot // before, after the measured loop
}

// round drives one deployment through the public client API only.
type round struct {
	d      *deployment
	in     *inputs
	orc    oracle
	traced bool
	res    roundResult
	origin time.Time
	// checkImage is off for the iteration that follows a join: three ranks
	// split the blocks differently, so the image need not match bit for bit.
	checkImage bool
}

// runRound deploys, warms up and measures for at least dur and at least
// minIters iterations. The caller shuts the deployment down (the traced
// run keeps it for the join probe).
func runRound(w workload, in *inputs, orc oracle, tiny, traced bool, dur time.Duration, minIters int) (*round, error) {
	r := &round{in: in, orc: orc, traced: traced, checkImage: true}
	// Each round's peak is its own: what earlier rounds and input generation
	// left in the heap goes back to the OS before the high-water mark restarts.
	debug.FreeOSMemory()
	resetPeakRSS()
	setupStart := time.Now()
	d, err := deploy(w, tiny, traced)
	if err != nil {
		return nil, err
	}
	r.d = d
	it := uint64(1)
	for ; it <= warmupIters; it++ {
		if s, ok := r.iterate(it, false); ok {
			r.res.warmupS = max(r.res.warmupS, s.warmup)
		}
	}
	r.res.setupS = time.Since(setupStart).Seconds()

	runtime.GC()
	if traced {
		r.res.client[0], r.res.server[0] = d.reg.Snapshot(), d.serverSnapshot()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	r.origin = time.Now()
	for n := 0; n < minIters || time.Since(r.origin) < dur; n++ {
		if _, ok := r.iterate(it, true); ok {
			last := &r.res.samples[len(r.res.samples)-1]
			last.end, last.cpu = time.Since(r.origin).Seconds(), cpuSeconds()-cpu0
		}
		it++
	}
	runtime.ReadMemStats(&ms1)
	r.res.mallocs = float64(ms1.Mallocs - ms0.Mallocs)
	r.res.peakRSSMiB = peakRSSMiB()
	if traced {
		r.res.client[1], r.res.server[1] = d.reg.Snapshot(), d.serverSnapshot()
	}
	return r, nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's high-water mark of the resident set
// (Linux: "5" to clear_refs). Where the reset is refused every round
// reports the whole process's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is that high-water mark: VmHWM, which the reset clears;
// ru_maxrss would keep the pre-reset (and, in a child, the parent's) peak.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kib / 1024
		}
	}
	return 0
}

// apiErr counts one API call and reports whether it failed.
func (r *round) apiErr(call string, it uint64, err error) bool {
	r.res.ops.calls++
	if err == nil {
		return false
	}
	r.res.ops.errs++
	fmt.Fprintf(os.Stderr, "benchmark: %s: iteration %d: %s: %v\n", r.d.w.name, it, call, err)
	return true
}

func (r *round) mark(it uint64, name string, start, end time.Time) {
	r.res.spans = append(r.res.spans, span{it, name, start.Sub(r.origin), end.Sub(r.origin)})
}

// iterate runs one in situ iteration and checks its outputs. A failed call
// abandons the iteration (after unpinning it) and records no sample.
func (r *round) iterate(it uint64, measured bool) (sample iterSample, ok bool) {
	h := r.d.handle
	index := int(it) % len(r.in.slots)
	s := &r.in.slots[index]
	record := measured && r.traced

	t0 := time.Now()
	_, err := h.Activate(it)
	t1 := time.Now()
	if r.apiErr("activate", it, err) {
		return sample, false
	}
	abandon := func() (iterSample, bool) {
		r.apiErr("deactivate", it, h.Deactivate(it))
		return sample, false
	}
	if record {
		prev := t1
		for i := range s.blocks {
			b := &s.blocks[i]
			err := h.Stage(it, b.meta, b.data)
			now := time.Now()
			if r.apiErr("stage", it, err) {
				return abandon()
			}
			r.res.stageCallUs = append(r.res.stageCallUs, float64(now.Sub(prev))/1e3)
			r.mark(it, "stage", prev, now)
			prev = now
		}
	} else {
		for i := range s.blocks {
			b := &s.blocks[i]
			if r.apiErr("stage", it, h.Stage(it, b.meta, b.data)) {
				return abandon()
			}
		}
	}
	t2 := time.Now()
	err = h.Flush(it)
	t3 := time.Now()
	if r.apiErr("flush", it, err) {
		return abandon()
	}
	results, err := h.Execute(it)
	t4 := time.Now()
	if r.apiErr("execute", it, err) {
		return abandon()
	}
	err = h.Deactivate(it)
	t5 := time.Now()
	if r.apiErr("deactivate", it, err) {
		return sample, false
	}
	r.check(index, s, results)
	if record {
		r.mark(it, "iteration", t0, t5)
		r.mark(it, "activate", t0, t1)
		r.mark(it, "flush", t2, t3)
		r.mark(it, "execute", t3, t4)
		r.mark(it, "deactivate", t4, t5)
	}
	sec := func(a, b time.Time) float64 { return b.Sub(a).Seconds() }
	sample = iterSample{
		wall: sec(t0, t5), activate: sec(t0, t1), stage: sec(t1, t2), flush: sec(t2, t3),
		execute: sec(t3, t4), deactivate: sec(t4, t5), bytes: float64(s.bytes),
	}
	// The backend's own breakdown is the critical rank's: the one whose
	// execute took longest, so its parts sum to no more than backendExec.
	for _, res := range results {
		if sum := res.Summary; sum["execute_sec"] >= sample.backendExec {
			sample.backendExec = sum["execute_sec"]
			sample.extract, sample.render = sum["extract_sec"], sum["render_sec"]
			sample.composite, sample.warmup = sum["composite_sec"], sum["warmup_sec"]
		}
	}
	if measured {
		r.res.samples = append(r.res.samples, sample)
	}
	return sample, true
}

// check is the output oracle. Every rank must have seen exactly the blocks
// the client staged (count, bytes, and on the sink the XOR of CRC-32s); a
// catalyst pipeline must have produced the single-rank triangle or cell
// count, and the same image as the last time this ring slot was rendered.
func (r *round) check(index int, s *slot, results []core.ExecResult) {
	var blocks, bytes, ref float64
	var crc uint32
	for _, res := range results {
		blocks += res.Summary["blocks"]
		bytes += res.Summary["bytes"]
		crc ^= uint32(res.Summary["crc_xor"])
		ref += res.Summary[r.d.w.reference]
	}
	w := r.d.w
	r.res.ops.checks++
	bad := blocks != float64(len(s.blocks))
	if w.reference == "" {
		bad = bad || bytes != float64(s.bytes) || crc != s.crc
	} else {
		bad = bad || ref != s.ref
	}
	if bad {
		r.res.ops.mismatches++
		fmt.Fprintf(os.Stderr, "benchmark: %s: oracle mismatch on slot %d: blocks %v/%d bytes %v/%d crc %08x/%08x %s %v/%v\n",
			w.name, index, blocks, len(s.blocks), bytes, s.bytes, crc, s.crc, w.reference, ref, s.ref)
	}
	if w.reference == "" || !r.checkImage {
		return
	}
	r.res.ops.checks++
	sum := sha256.Sum256(results[0].Image)
	if seen, ok := r.orc[index]; !ok {
		r.orc[index] = sum
	} else if seen != sum || len(results[0].Image) == 0 {
		r.res.ops.mismatches++
		fmt.Fprintf(os.Stderr, "benchmark: %s: rank-0 image of slot %d changed between cycles\n", w.name, index)
	}
}
