// Command benchmark is the repository's one measurement harness: it deploys
// a real 2-server Colza staging area inside this process, drives it through
// the public client API in a closed loop with one client handle (a
// simulation rank waits for its stage), checks every iteration's outputs,
// and reports the end-to-end and per-layer metrics named in BENCHMARK.json.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	    one run of one workload; the last line of stdout is the result
//	bash benchmark/run.sh [-seed n] [-seconds s] [-out dir]
//	    every workload, two untraced passes and one traced, as a table
//	    and a results file
//	bash benchmark/run.sh -compare old.json new.json
//	    applies BENCHMARK.json's bounds to two results files
//
// See README.md in this directory for what each number means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"colza/benchmark/sink"
	"colza/internal/catalyst"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result line (empty: run them all)")
		seed    = flag.Int64("seed", 1, "input seed: Gray-Scott noise, Mandelbulb phase, staging order")
		seconds = flag.Float64("seconds", 10, "measured seconds per run, split over its rounds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced round and the probes")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for results and trace files")
		spec    = flag.String("spec", "BENCHMARK.json", "the benchmark contract: metric names, directions and bounds")
		compare = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
		calib   = flag.Bool("calibrate", false, "print the machine calibration kernels' result and exit")
	)
	flag.Parse()
	// One P for the client and both servers, unless the environment asks
	// otherwise. On the reference box (two vCPUs of a shared host) a second
	// P buys no speed: every workload is faster on one, the per-block TCP
	// path 2.3x (35 ms against 82 ms an iteration), because with two the
	// request/pull/response chain pays a cross-vCPU wake-up per hop, and
	// how long those take is the host's business, not the program's.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	catalyst.Register()
	sink.Register()

	var err error
	switch {
	case *compare:
		err = runCompare(*spec, flag.Args())
	case *calib:
		err = json.NewEncoder(os.Stdout).Encode(calibrate())
	case *name == "":
		err = runAll(*spec, *outDir, *seed, *seconds)
	default:
		err = runOne(*name, runOptions{seed: *seed, seconds: *seconds, traceOut: *outDir}, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is the driver's entry point. It prints a result only when the
// run completed; a run with failed operations still prints (correct:
// false) and then exits non-zero.
func runOne(name string, opt runOptions, traced bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	run := runUntraced
	if traced {
		run = runTraced
	}
	rep, err := run(w, opt)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, rep.Failed, rep.Attempted)
	}
	return nil
}
