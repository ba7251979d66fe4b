package main

import (
	"math"
	"os"
	"regexp"
	"sort"
	"testing"

	"colza/benchmark/sink"
	"colza/internal/catalyst"
)

func TestMain(m *testing.M) {
	catalyst.Register()
	sink.Register()
	os.Exit(m.Run())
}

var tinyRun = runOptions{seed: 1, minIters: 4, tiny: true}

func loadSpec(t *testing.T) spec {
	t.Helper()
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func specNames(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// checkNames asserts a run emitted exactly the contract's metrics, each
// with the contract's unit.
func checkNames(t *testing.T, got map[string]metric, want []specMetric) {
	t.Helper()
	var names []string
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	wantNames := specNames(want)
	if len(names) != len(wantNames) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(names), len(wantNames))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s in BENCHMARK.json was not emitted", m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s is %v", m.Name, v.Value)
		}
	}
	for _, k := range names {
		if i := sort.SearchStrings(wantNames, k); i == len(wantNames) || wantNames[i] != k {
			t.Errorf("emitted metric %s is not in BENCHMARK.json", k)
		}
	}
}

func TestSpecIsWellFormed(t *testing.T) {
	sp := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var ws []workload
	for _, w := range workloads() {
		if !w.ungated {
			ws = append(ws, w)
		}
	}
	if len(sp.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program gates %d", len(sp.Workloads), len(ws))
	}
	for i, w := range sp.Workloads {
		use(w.Name)
		if w.Name != ws[i].name || w.Why != ws[i].why {
			t.Errorf("workload %d: BENCHMARK.json and workloads() disagree on %q", i, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
}

// TestSmoke runs all five workloads at tiny sizes, untraced and traced, and
// checks what the acceptance criteria ask of every run.
func TestSmoke(t *testing.T) {
	sp := loadSpec(t)
	probes, err := runProbes(tinyRun.seed, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep, err := runUntraced(w, tinyRun)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("untraced: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			checkNames(t, rep.Metrics, sp.EndToEnd)
			for k, v := range rep.Metrics {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; the contract wants it never 0", k, v.Value)
				}
			}

			tr, err := measureTraced(w, tinyRun)
			if err != nil {
				t.Fatal(err)
			}
			if tr.ops.failed() != 0 {
				t.Errorf("traced: %d of %d failed", tr.ops.failed(), tr.ops.attempted())
			}
			layers := perLayer(w, tr, probes)
			checkNames(t, layers, sp.PerLayer)
			checkSamples(t, w, tr.traced.res.samples)
			checkTraced(t, w, tr, layers)
		})
	}
}

func checkSamples(t *testing.T, w workload, samples []iterSample) {
	t.Helper()
	if len(samples) < tinyRun.minIters {
		t.Fatalf("%d samples, want at least %d", len(samples), tinyRun.minIters)
	}
	for i, s := range samples {
		phases := s.activate + s.stage + s.flush + s.execute + s.deactivate
		if math.Abs(phases-s.wall) > 0.02*s.wall {
			t.Errorf("sample %d: phases sum to %v, wall is %v", i, phases, s.wall)
		}
		if s.backendExec <= 0 || s.backendExec > s.execute {
			t.Errorf("sample %d: backend reports %v s inside a %v s execute", i, s.backendExec, s.execute)
		}
		if w.reference == "" {
			continue
		}
		// Extract, render, composite and warm-up are the critical rank's
		// parts of its own execute: with the client-side overhead they
		// account for the execute wall, the rest being the bounds
		// all-reduce and the PNG.
		parts := s.extract + s.render + s.composite + s.warmup
		if parts <= 0 || parts > s.backendExec*(1+1e-9) {
			t.Errorf("sample %d: catalyst parts %v exceed the backend's execute %v", i, parts, s.backendExec)
		}
	}
}

func checkTraced(t *testing.T, w workload, tr *tracedRun, layers map[string]metric) {
	t.Helper()
	res := tr.traced.res
	roots := 0
	for _, s := range res.spans {
		if s.end < s.start {
			t.Fatalf("span %s of iteration %d ends before it starts", s.name, s.iter)
		}
		if s.name == "iteration" {
			roots++
		}
	}
	if roots != len(res.samples) {
		t.Errorf("%d root spans for %d iterations", roots, len(res.samples))
	}
	if want := len(res.samples) * len(tr.in.slots[0].blocks); len(res.stageCallUs) != want {
		t.Errorf("%d stage-call timings, want %d", len(res.stageCallUs), want)
	}
	if tr.join.converge <= 0 || tr.join.toPinned < tr.join.converge || tr.join.firstIter <= 0 {
		t.Errorf("join probe: %+v", tr.join)
	}
	// Each mechanism shows on its own workload and only there.
	expect := func(name string, positive bool) {
		if got := layers[name].Value > 0; got != positive {
			t.Errorf("%s = %v on %s", name, layers[name].Value, w.name)
		}
	}
	expect("mercury.local_pulls_per_iter", w.transport == transportSM)
	expect("core.batch_flushes_per_iter", w.batching)
	if lt := layers["codec.wire_ratio"].Value < 1; lt != (w.codec != "") {
		t.Errorf("codec.wire_ratio = %v on %s", layers["codec.wire_ratio"].Value, w.name)
	}
	for _, zero := range []string{"core.stage_retries_per_iter", "core.busy_retries_per_iter", "margo.shed_per_iter", "na.tcp_fallback_count"} {
		if layers[zero].Value != 0 {
			t.Errorf("%s = %v, want 0", zero, layers[zero].Value)
		}
	}
}

// TestOracleCatchesCorruptBlock flips one byte of a block after its CRC
// was taken: the sink sees different bytes than the client recorded, and
// every iteration that stages the block must count as a failed operation.
func TestOracleCatchesCorruptBlock(t *testing.T) {
	w, _ := workloadByName("mb_stage_sm_batched")
	in, err := w.generate(1, true)
	if err != nil {
		t.Fatal(err)
	}
	// The same buffer is staged under several block ids: all of them arrive
	// corrupted, and sink.BlockSum's id multiplier keeps them from cancelling.
	b := &in.slots[0].blocks[0]
	b.data[len(b.data)/2] ^= 0x40
	r, err := runRound(w, in, oracle{}, true, false, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.d.shutdown()
	iters := warmupIters + 2
	if r.res.ops.mismatches != iters || r.res.ops.errs != 0 {
		t.Errorf("%d mismatches and %d API errors over %d iterations, want %d and 0", r.res.ops.mismatches, r.res.ops.errs, iters, iters)
	}
	if rep := newReport(r.res.ops); rep.Correct || rep.Failed != iters {
		t.Errorf("report says correct %v, failed %d", rep.Correct, rep.Failed)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if got := spread([]float64{9, 10, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread = %v", got)
	}
}

// TestWindows pins how a round is cut and read: a window closes once it
// spans windowSeconds and holds windowIters iterations, what is left over
// joins the last window, and the quietest window decides a timing.
func TestWindows(t *testing.T) {
	var samples []iterSample
	end := 0.0
	for _, wall := range []float64{.25, .25, .25, .25, .25, .125, .125, .125, .125, .125, .5, .5, .5} {
		end += wall
		samples = append(samples, iterSample{wall: wall, end: end, cpu: end / 2})
	}
	ws := windowsOf(samples)
	if len(ws) != 2 || len(ws[0].samples) != 5 || len(ws[1].samples) != 8 {
		t.Fatalf("cut %d windows: %+v", len(ws), ws)
	}
	if ws[0].cpu != 0.625 || ws[1].cpu != end/2-0.625 {
		t.Errorf("window CPU %v and %v", ws[0].cpu, ws[1].cpu)
	}
	if got := quietest(ws, windowMedian(wallOf), false); got != 0.125 {
		t.Errorf("quietest wall = %v, want the second window's median 0.125", got)
	}
	if got := quietest(ws, windowMedian(wallOf), true); got != 0.25 {
		t.Errorf("highest window median = %v, want 0.25", got)
	}
	if got := quietest(ws, cpuPerIter, false); got != 0.125 {
		t.Errorf("quietest CPU per iteration = %v, want the first window's 0.625/5", got)
	}
	// A round too short to close a window is one window.
	if ws := windowsOf(samples[:3]); len(ws) != 1 || len(ws[0].samples) != 3 || ws[0].cpu != 0.375 {
		t.Errorf("short round: %+v", ws)
	}
}

// TestTailNeedsTenSamplesBeyond pins the percentile picker: a percentile
// is reported only when at least ten samples lie beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n   int
		pct float64
	}{{10, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		pct, v := tail(ramp(c.n))
		if pct != c.pct {
			t.Errorf("n=%d: picked p%v, want p%v", c.n, pct, c.pct)
		}
		if beyond := float64(c.n-1) - v; pct != 50 && beyond < 9 {
			t.Errorf("n=%d: only %v samples beyond p%v", c.n, beyond, pct)
		}
	}
}

func TestJudge(t *testing.T) {
	p := func(v, spread float64) pairResult { return pairResult{Value: v, Spread: spread} }
	for _, c := range []struct {
		name     string
		old, new pairResult
		better   string
		want     string
	}{
		{"slower within bound", p(1, 0), p(1.09, 0), "lower", verdictSame},
		{"slower beyond bound", p(1, 0), p(1.11, 0), "lower", verdictWorse},
		{"faster beyond bound", p(1, 0), p(0.85, 0), "lower", verdictBetter},
		{"throughput down", p(100, 0), p(85, 0), "higher", verdictWorse},
		{"throughput up", p(100, 0), p(120, 0), "higher", verdictBetter},
		{"noisy old side", p(1, 0.2), p(1.5, 0), "lower", verdictUnresolved},
		{"noisy new side", p(1, 0), p(0.5, 0.11), "lower", verdictUnresolved},
	} {
		if got, _ := judge(c.old, c.new, c.better, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsFailedOps(t *testing.T) {
	sp := spec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "iter_wall_p50_s", Unit: "s", Better: "lower", Bound: 0.1}},
	}
	side := func(wall, failed float64) results {
		return results{Workloads: map[string]*workloadResult{"w": {
			EndToEnd:       map[string]pairResult{"iter_wall_p50_s": {Value: wall}},
			FailedOpsRatio: failed,
		}}}
	}
	if _, worse := compareResults(sp, side(1, 0), side(1.05, 0)); worse != 0 {
		t.Errorf("a 5%% move inside a 10%% bound counted as worse")
	}
	if _, worse := compareResults(sp, side(1, 0), side(1, 0.001)); worse != 1 {
		t.Errorf("a rise in failed operations did not count as worse")
	}
	if _, worse := compareResults(sp, side(1, 0), side(1.2, 0)); worse != 1 {
		t.Errorf("a 20%% slowdown did not count as worse")
	}
}
