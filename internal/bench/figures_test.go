package bench

import (
	"os"
	"path/filepath"
	"testing"
)

// notGolden names the registry experiments TestFiguresMatchResultsCSV
// does not regenerate, each with the reason. A figure missing from this
// list is under test.
var notGolden = map[string]string{
	"fig4":          "timed on the wall clock",
	"fig9":          "timed on the wall clock",
	"a5":            "timed on the wall clock",
	"table2":        "deterministic, but too slow at full scale for every test run; ci.sh diffs it against results_csv/",
	"fig7":          "deterministic, but too slow at full scale for every test run; ci.sh diffs it against results_csv/",
	"fig10":         "deterministic, but too slow at full scale for every test run; ci.sh diffs it against results_csv/",
	"ext-autoscale": "deterministic, but too slow at full scale for every test run; ci.sh diffs it against results_csv/",
}

// TestFiguresMatchResultsCSV: every registry figure not in notGolden
// regenerates, at full scale, byte for byte the CSV recorded in
// results_csv/. A change that moves a figure's numbers must re-record it
// and say why.
func TestFiguresMatchResultsCSV(t *testing.T) {
	if raceEnabled {
		t.Skip("full-scale figures are too slow under the race detector; the pass without it checks them")
	}
	for _, e := range All() {
		if _, skip := notGolden[e.Name]; skip {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "results_csv", e.Name+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			tab, err := e.Run(false)
			if err != nil {
				t.Fatal(err)
			}
			if got := tab.CSV(); got != string(want) {
				t.Fatalf("%s.csv differs from results_csv/:\n got:\n%s\nwant:\n%s", e.Name, got, want)
			}
		})
	}
}
