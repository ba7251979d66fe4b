package main

import (
	"fmt"
	"time"
)

// Rounds per run. A run re-deploys this many times so that one slow
// deployment does not decide setup_s, nor one heap's GC timing peak_rss_mib.
const (
	untracedRounds = 5
	// A traced run brackets its traced round with two untraced ones: their
	// disagreement is the noise the tracing overhead has to be read against.
	tracedRounds = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOptions sizes a run. The tests shrink the inputs and fix the
// iteration count; the command measures for a wall-clock budget.
type runOptions struct {
	seed     int64
	seconds  float64
	minIters int // per round
	tiny     bool
	traceOut string // where a traced run writes its spans ("" = nowhere)
}

func pooled(rounds []*round) []iterSample {
	var out []iterSample
	for _, r := range rounds {
		out = append(out, r.res.samples...)
	}
	return out
}

func column(samples []iterSample, f func(iterSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func wallOf(s iterSample) float64    { return s.wall }
func executeOf(s iterSample) float64 { return s.execute }

// stageRateOf is the iteration's staged payload over the wall of its Stage
// calls plus Flush, in MiB/s.
func stageRateOf(s iterSample) float64 { return s.bytes / (s.stage + s.flush) / (1 << 20) }

// A window is the unit a run's timings are taken over: consecutive
// iterations of one round that span at least windowSeconds and number at
// least windowIters. The reference box is a shared host that runs the same
// code 1.3-1.6x slower for 5-60 s at a time (a neighbour on its memory
// system): a median over a whole run reports how much of the run fell into
// such a spell, the median of the run's quietest window reports the program.
const (
	windowSeconds = 0.5
	windowIters   = 5
)

type window struct {
	samples []iterSample
	cpu     float64 // process CPU seconds over the window
}

// windowsOf cuts one round's samples into windows; what is left over at the
// end joins the last window.
func windowsOf(samples []iterSample) []window {
	var out []window
	first, start, cpu := 0, 0.0, 0.0
	for i, s := range samples {
		if s.end-start >= windowSeconds && i+1-first >= windowIters {
			out = append(out, window{samples[first : i+1], s.cpu - cpu})
			first, start, cpu = i+1, s.end, s.cpu
		}
	}
	if first < len(samples) {
		last := samples[len(samples)-1]
		if len(out) == 0 {
			return []window{{samples, last.cpu}}
		}
		w := &out[len(out)-1]
		w.samples = samples[first-len(w.samples):]
		w.cpu += last.cpu - cpu
	}
	return out
}

func windowsOfRounds(rounds []*round) []window {
	var out []window
	for _, r := range rounds {
		out = append(out, windowsOf(r.res.samples)...)
	}
	return out
}

// quietest is the lowest (or, for a rate, the highest) of the windows'
// values: the window in which the machine disturbed the program least. The
// disturbance only ever adds time, so the best window, not the middle one,
// is the estimate.
func quietest(ws []window, value func(window) float64, higher bool) float64 {
	best := value(ws[0])
	for _, w := range ws[1:] {
		if v := value(w); (v > best) == higher {
			best = v
		}
	}
	return best
}

// windowMedian is the window value "median of f over the window's iterations".
func windowMedian(f func(iterSample) float64) func(window) float64 {
	return func(w window) float64 { return median(column(w.samples, f)) }
}

func cpuPerIter(w window) float64 { return w.cpu / float64(len(w.samples)) }

// runUntraced measures the end-to-end metrics: tracing off, no client
// registry attached.
func runUntraced(w workload, opt runOptions) (report, error) {
	in, err := w.generate(opt.seed, opt.tiny)
	if err != nil {
		return report{}, fmt.Errorf("generating %s inputs: %w", w.name, err)
	}
	orc := oracle{}
	dur := time.Duration(opt.seconds / untracedRounds * float64(time.Second))
	var rounds []*round
	var ops opCounts
	for i := 0; i < untracedRounds; i++ {
		r, err := runRound(w, in, orc, opt.tiny, false, dur, opt.minIters)
		if err != nil {
			return report{}, err
		}
		r.d.shutdown()
		rounds = append(rounds, r)
		ops.add(r.res.ops)
	}
	rep := newReport(ops)
	if len(pooled(rounds)) == 0 {
		return rep, nil
	}
	rep.Metrics = endToEnd(rounds)
	return rep, nil
}

func newReport(ops opCounts) report {
	return report{Correct: ops.failed() == 0, Attempted: ops.attempted(), Failed: ops.failed(), Metrics: map[string]metric{}}
}

func endToEnd(rounds []*round) map[string]metric {
	ws := windowsOfRounds(rounds)
	var setups, peaks []float64
	var mallocs float64
	for _, r := range rounds {
		setups = append(setups, r.res.setupS)
		peaks = append(peaks, r.res.peakRSSMiB)
		mallocs += r.res.mallocs
	}
	return map[string]metric{
		// A slow spell of the machine stretches a set-up like anything else:
		// the quickest of the run's set-ups, as the quietest window.
		"setup_s":         {sorted(setups)[0], "s"},
		"iter_wall_p50_s": {quietest(ws, windowMedian(wallOf), false), "s"},
		"iter_cpu_s":      {quietest(ws, cpuPerIter, false), "s"},
		"iter_allocs":     {mallocs / float64(len(pooled(rounds))), "count"},
		// How far the heap overshoots its live set follows GC timing, in
		// either direction: the middle round.
		"peak_rss_mib": {median(peaks), "MiB"},
	}
}
