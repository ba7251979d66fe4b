package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// Verdicts of one (end-to-end metric, workload) pair.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's direction and bound. change is how much worse
// the new value is, as a share of the old one (negative = better). A pair
// whose own passes, on either side, landed further apart than its bound
// cannot be called either way: unresolved, not unchanged.
func judge(old, new pairResult, better string, bound float64) (verdict string, change float64) {
	if old.Value != 0 {
		change = (new.Value - old.Value) / old.Value
	}
	if better == "higher" {
		change = -change
	}
	switch {
	case max(old.Spread, new.Spread) > bound:
		return verdictUnresolved, change
	case change > bound:
		return verdictWorse, change
	case change < -bound:
		return verdictBetter, change
	}
	return verdictSame, change
}

// machineDrift is how far the calibration kernels moved between two results
// files: the larger relative change of their median memcpy rate and spin
// time. It is printed, not judged by: the kernels do not move with the
// workloads (two files whose memcpy rate differed 37 % agreed within 10 % on
// every timed pair; a spell that slows an iteration 45 % slows the spin 5 %).
func machineDrift(old, cur results) float64 {
	med := func(r results, f func(calibration) float64) float64 {
		var xs []float64
		for _, c := range r.Env.Machine {
			xs = append(xs, f(c))
		}
		return median(xs)
	}
	drift := 0.0
	for _, f := range []func(calibration) float64{
		func(c calibration) float64 { return c.MemcpyMiBs },
		func(c calibration) float64 { return c.SpinMs },
	} {
		if o, n := med(old, f), med(cur, f); o > 0 && n > 0 {
			drift = max(drift, math.Abs(n-o)/min(o, n))
		}
	}
	return drift
}

func readResults(path string) (results, error) {
	var r results
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// runCompare prints one row per pair and fails when any pair is worse.
func runCompare(specPath string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: -compare old.json new.json")
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	old, err := readResults(args[0])
	if err != nil {
		return err
	}
	cur, err := readResults(args[1])
	if err != nil {
		return err
	}
	rows, worse := compareResults(sp, old, cur)
	fmt.Printf("machine calibration moved %.0f%% between the two files\n", machineDrift(old, cur)*100)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tworse by\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
			r.workload, r.metric, r.old, r.new, r.unit, r.change*100, r.bound*100, r.verdict)
	}
	tw.Flush()
	if worse > 0 {
		return fmt.Errorf("%d of %d pairs worse than their bound", worse, len(rows))
	}
	return nil
}

type compareRow struct {
	workload, metric, unit, verdict string
	old, new, change, bound         float64
}

func compareResults(sp spec, old, cur results) (rows []compareRow, worse int) {
	// The ungated workloads are judged by the same bounds where both files
	// have them.
	names := sp.Workloads
	for _, w := range workloads() {
		if w.ungated && old.Workloads[w.name] != nil && cur.Workloads[w.name] != nil {
			names = append(names, specWorkload{Name: w.name})
		}
	}
	for _, w := range names {
		ow, nw := old.Workloads[w.Name], cur.Workloads[w.Name]
		if ow == nil || nw == nil {
			rows = append(rows, compareRow{workload: w.Name, metric: "(missing)", verdict: verdictUnresolved})
			continue
		}
		for _, m := range sp.EndToEnd {
			v, change := judge(ow.EndToEnd[m.Name], nw.EndToEnd[m.Name], m.Better, m.Bound)
			rows = append(rows, compareRow{w.Name, m.Name, m.Unit, v, ow.EndToEnd[m.Name].Value, nw.EndToEnd[m.Name].Value, change, m.Bound})
		}
		// Any increase in failed operations is a regression.
		v := verdictSame
		if nw.FailedOpsRatio > ow.FailedOpsRatio {
			v = verdictWorse
		} else if nw.FailedOpsRatio < ow.FailedOpsRatio {
			v = verdictBetter
		}
		rows = append(rows, compareRow{w.Name, "failed_ops_ratio", "ratio", v, ow.FailedOpsRatio, nw.FailedOpsRatio, nw.FailedOpsRatio - ow.FailedOpsRatio, 0})
	}
	for _, r := range rows {
		if r.verdict == verdictWorse {
			worse++
		}
	}
	return rows, worse
}
