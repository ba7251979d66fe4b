package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"text/tabwriter"
)

// spec is BENCHMARK.json: the names, directions and bounds everything
// else is held to.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (spec, error) {
	var s spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// passes is how many times runAll measures each workload untraced. The
// passes are interleaved (A B C D E, A B C D E) so a slow spell of the
// machine lands on different workloads, and their disagreement is each
// pair's spread.
const passes = 2

// results is the file runAll writes and -compare reads.
type results struct {
	Env       env                        `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type env struct {
	Commit      string        `json:"commit"`
	GoVersion   string        `json:"go_version"`
	NProc       int           `json:"nproc"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Kernel      string        `json:"kernel"`
	Seed        int64         `json:"seed"`
	RunSeconds  float64       `json:"run_seconds"`
	Rounds      string        `json:"rounds"`
	Caveats     []string      `json:"caveats"`
	MemcpyBytes int           `json:"machine_memcpy_array_bytes"`
	LLC         string        `json:"machine_last_level_cache"`
	Machine     []calibration `json:"machine_per_run"`
}

// pairResult is one (end-to-end metric, workload) pair over the passes.
type pairResult struct {
	Value  float64   `json:"value"` // mean of the passes
	Unit   string    `json:"unit"`
	Passes []float64 `json:"passes"`
	Spread float64   `json:"spread"` // (max - min) / median of the passes
}

type workloadResult struct {
	Why            string                `json:"why"`
	EndToEnd       map[string]pairResult `json:"end_to_end"`
	PerLayer       map[string]metric     `json:"per_layer"`
	Attempted      int                   `json:"attempted"`
	Failed         int                   `json:"failed"`
	FailedOpsRatio float64               `json:"failed_ops_ratio"`
}

func newEnv(seed int64, seconds float64) env {
	return env{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernel(),
		Seed:       seed,
		RunSeconds: seconds,
		Rounds: fmt.Sprintf("%d passes x %d rounds untraced, 1 run of %d rounds traced (middle one traced); each round: fresh deployment, %d warm-up iterations, run_seconds/rounds measured",
			passes, untracedRounds, tracedRounds, warmupIters),
		Caveats: []string{
			"servers are goroutines of the benchmark process, not separate daemons",
			"tcp is host loopback; sm is na.ListenDual endpoints inside one process; inproc is the in-memory fabric",
			"one client handle, closed loop: the next iteration starts when the previous one returned",
		},
		MemcpyBytes: memcpyBytes,
		LLC:         lastLevelCache(),
	}
}

// commit is the checkout's HEAD, when the checkout is a git repository.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

func lastLevelCache() string {
	for _, idx := range []string{"index3", "index2"} {
		if raw, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size"); err == nil {
			return strings.TrimSpace(string(raw))
		}
	}
	return "unknown"
}

// child re-executes this binary and decodes the last line it prints. One
// run per process keeps CPU time, allocations and heap that run's alone;
// the calibration runs in a child too: its kernels touch 128 MiB.
func child(exe string, into any, args ...string) error {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if jerr := json.Unmarshal(lines[len(lines)-1], into); jerr != nil {
		if err != nil {
			return fmt.Errorf("%v: %w", args, err)
		}
		return fmt.Errorf("%v: no result line: %w", args, jerr)
	}
	return nil
}

// runAll measures every workload and writes results.json. It fails when
// any operation failed anywhere.
func runAll(specPath, outDir string, seed int64, seconds float64) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	res := results{Env: newEnv(seed, seconds), Workloads: map[string]*workloadResult{}}
	fmt.Printf("colza benchmark: %s, %d cores, GOMAXPROCS %d, kernel %s, commit %s\n",
		res.Env.GoVersion, res.Env.NProc, res.Env.GOMAXPROCS, res.Env.Kernel, res.Env.Commit)
	for _, c := range res.Env.Caveats {
		fmt.Println("  note:", c)
	}
	run := func(workload string, trace int) (report, error) {
		var cal calibration
		if err := child(exe, &cal, "-calibrate"); err != nil {
			return report{}, err
		}
		res.Env.Machine = append(res.Env.Machine, cal)
		var rep report
		err := child(exe, &rep, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-out", outDir)
		return rep, err
	}
	perPass := map[string][]report{}
	for pass := 0; pass < passes; pass++ {
		for _, w := range workloads() {
			rep, err := run(w.name, 0)
			if err != nil {
				return err
			}
			perPass[w.name] = append(perPass[w.name], rep)
			fmt.Printf("  pass %d %-22s iter_wall_p50_s %.5f\n", pass+1, w.name, rep.Metrics["iter_wall_p50_s"].Value)
		}
	}
	failed := 0
	for _, w := range workloads() {
		traced, err := run(w.name, 1)
		if err != nil {
			return err
		}
		wr := &workloadResult{Why: w.why, EndToEnd: map[string]pairResult{}, PerLayer: traced.Metrics,
			Attempted: traced.Attempted, Failed: traced.Failed}
		for _, rep := range perPass[w.name] {
			wr.Attempted += rep.Attempted
			wr.Failed += rep.Failed
		}
		wr.FailedOpsRatio = float64(wr.Failed) / float64(wr.Attempted)
		failed += wr.Failed
		for _, m := range sp.EndToEnd {
			var vals []float64
			for _, rep := range perPass[w.name] {
				vals = append(vals, rep.Metrics[m.Name].Value)
			}
			wr.EndToEnd[m.Name] = pairResult{Value: mean(vals), Unit: m.Unit, Passes: vals, Spread: spread(vals)}
		}
		res.Workloads[w.name] = wr
	}
	printTable(sp, res)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s\n", path, filepath.Join(outDir, "trace-<workload>.jsonl"))
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func printTable(sp spec, res results) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "\nEND TO END (mean of passes; spread = (max-min)/median of passes)")
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tspread\tbound\tbetter")
	for _, w := range workloads() {
		wr := res.Workloads[w.name]
		for _, m := range sp.EndToEnd {
			p := wr.EndToEnd[m.Name]
			bound := fmt.Sprintf("%.0f%%", m.Bound*100)
			if w.ungated {
				bound = "none"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%.1f%%\t%s\t%s\n", w.name, m.Name, p.Value, p.Unit, p.Spread*100, bound, m.Better)
		}
		fmt.Fprintf(tw, "%s\tfailed_ops_ratio\t%g\tratio\t\t0%%\tlower\n", w.name, wr.FailedOpsRatio)
	}
	tw.Flush()
	fmt.Fprintln(tw, "\nPER LAYER (traced round and probes)")
	header := "metric\tunit"
	for _, w := range workloads() {
		header += "\t" + w.name
	}
	fmt.Fprintln(tw, header)
	for _, m := range sp.PerLayer {
		row := m.Name + "\t" + m.Unit
		for _, w := range workloads() {
			row += fmt.Sprintf("\t%.5g", res.Workloads[w.name].PerLayer[m.Name].Value)
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
}
