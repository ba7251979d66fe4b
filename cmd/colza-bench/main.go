// Command colza-bench regenerates the tables and figures of the Colza
// paper's evaluation (and the ablations listed in DESIGN.md) from this
// repository's reproduction.
//
// Usage:
//
//	colza-bench -list
//	colza-bench                    # run everything (full scale)
//	colza-bench -quick             # run everything (scaled down)
//	colza-bench fig5 table1 a3     # run selected experiments
//	colza-bench fig9 | tee results.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"colza/internal/bench"
	"colza/internal/catalyst"
)

func main() {
	quick := flag.Bool("quick", false, "run scaled-down experiments (seconds instead of minutes)")
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "also write each table as <dir>/<name>.csv")
	flag.Parse()

	catalyst.Register()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Desc)
		}
		return
	}

	var selected []bench.Experiment
	if args := flag.Args(); len(args) > 0 {
		for _, name := range args {
			e, err := bench.Lookup(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	} else {
		selected = bench.All()
	}

	w := os.Stdout
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Fprintf(w, "colza-bench: %d experiment(s), %s mode\n\n", len(selected), mode)
	failures := 0
	for _, e := range selected {
		start := time.Now()
		tab, err := e.Run(*quick)
		if err != nil {
			failures++
			fmt.Fprintf(w, "!!! %s failed: %v\n\n", e.Name, err)
			continue
		}
		tab.Fprint(w)
		fmt.Fprintf(w, "    [%s completed in %.1fs]\n\n", e.Name, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := fmt.Sprintf("%s/%s.csv", *csvDir, e.Name)
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}
