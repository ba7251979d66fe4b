package bench

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"colza/internal/catalyst"
)

// These tests run every experiment in quick mode and assert the *shape*
// claims the paper makes — who wins, what grows, where overheads appear —
// not absolute numbers.

// cellF reads a numeric cell: the value Add was given where it was a
// float64 (the printed three decimals quantise millisecond timings), the
// parsed text otherwise.
func cellF(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	if v := tab.exact[row][col]; !math.IsNaN(v) {
		return v
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(tab.Rows[row][col]), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not a number: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

// lastQuick holds each pipeline figure's latest quick-mode table by ID, so
// TestPipelineFiguresDeterministic reruns a figure once against the table
// its shape test already produced.
var lastQuick = map[string]*Table{}

// runQuick runs fig in quick mode and records the table in lastQuick.
func runQuick(t *testing.T, fig func(bool) (*Table, error)) *Table {
	t.Helper()
	tab, err := fig(true)
	if err != nil {
		t.Fatal(err)
	}
	lastQuick[tab.ID] = tab
	return tab
}

func TestFig1aShape(t *testing.T) {
	tab := Fig1aDataGrowth(true)
	if len(tab.Rows) < 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	first := cellF(t, tab, 0, 1)
	last := cellF(t, tab, len(tab.Rows)-1, 1)
	if last < 2*first {
		t.Fatalf("cells did not grow enough: %v -> %v", first, last)
	}
}

func TestTable1Shape(t *testing.T) {
	tab := Table1PointToPoint(true)
	// Row 0 is 8B: vendor < openmpi < mona < na.
	v, o, m, n := cellF(t, tab, 0, 1), cellF(t, tab, 0, 2), cellF(t, tab, 0, 3), cellF(t, tab, 0, 4)
	if !(v < o && o < m && m < n) {
		t.Fatalf("8B ordering: %v %v %v %v", v, o, m, n)
	}
	// Row 3 is 16KiB: mona < openmpi (the crossover), vendor still first.
	v16, o16, m16 := cellF(t, tab, 3, 1), cellF(t, tab, 3, 2), cellF(t, tab, 3, 3)
	if !(v16 < m16 && m16 < o16) {
		t.Fatalf("16KiB crossover: vendor=%v openmpi=%v mona=%v", v16, o16, m16)
	}
	if tab.Rows[3][4] != "-" {
		t.Fatal("NA must be dash above 2KiB")
	}
	t.Log("\n" + tab.String())
}

func TestTable2Shape(t *testing.T) {
	tab := Table2Reduce(true)
	// Last row (32KiB): vendor < mona << openmpi.
	last := len(tab.Rows) - 1
	v, o, m := cellF(t, tab, last, 1), cellF(t, tab, last, 2), cellF(t, tab, last, 3)
	if !(v < m && m < o) {
		t.Fatalf("32KiB ordering: vendor=%v openmpi=%v mona=%v", v, o, m)
	}
	if o < 20*v {
		t.Fatalf("openmpi collapse missing: %v vs vendor %v", o, v)
	}
	if m > 10*v {
		t.Fatalf("mona should stay within ~10x of vendor: %v vs %v", m, v)
	}
	t.Log("\n" + tab.String())
}

func TestFig4Shape(t *testing.T) {
	tab := Fig4Resizing(true)
	var staticSum, elasticSum float64
	var staticMax, elasticMax float64
	for i := range tab.Rows {
		s, e := cellF(t, tab, i, 1), cellF(t, tab, i, 2)
		staticSum += s
		elasticSum += e
		if s > staticMax {
			staticMax = s
		}
		if e > elasticMax {
			elasticMax = e
		}
	}
	n := float64(len(tab.Rows))
	if staticSum/n < 1.5*(elasticSum/n) {
		t.Fatalf("static avg %.1f should clearly exceed elastic avg %.1f", staticSum/n, elasticSum/n)
	}
	t.Log("\n" + tab.String())
}

func TestFig5Shape(t *testing.T) {
	tab := runQuick(t, Fig5MandelbulbWeak)
	// Weak scaling: per-server work constant, so MoNA's overhead stays
	// small at every scale. Both arms did the same work, so MoNA's costlier
	// messages can only add to the MPI arm's time, never take from it.
	for i := range tab.Rows {
		mpi, mona, ratio := cellF(t, tab, i, 1), cellF(t, tab, i, 2), cellF(t, tab, i, 3)
		if ratio > 4 {
			t.Fatalf("row %d: mona/mpi ratio %.2f too large; MoNA overhead story broken", i, ratio)
		}
		if mona < mpi {
			t.Fatalf("row %d: mona %v below mpi %v on the same work", i, mona, mpi)
		}
	}
	oneServerCountedWork(t, tab)
	t.Log("\n" + tab.String())
}

// oneServerCountedWork checks that a scaling figure's arms compared real
// work, not two zeros: its first row is one server, which costs no
// communication, so its time is counted compute alone.
func oneServerCountedWork(t *testing.T, tab *Table) {
	t.Helper()
	if cellF(t, tab, 0, 0) != 1 || cellF(t, tab, 0, 1) <= 0 || cellF(t, tab, 0, 2) <= 0 {
		t.Fatalf("%s: no work counted on one server\n%s", tab.ID, tab)
	}
}

func TestFig6Shape(t *testing.T) {
	tab := runQuick(t, Fig6GrayScottStrong)
	// Strong scaling: more servers make the fixed domain faster.
	first := cellF(t, tab, 0, 2)
	last := cellF(t, tab, len(tab.Rows)-1, 2)
	if last >= first {
		t.Fatalf("strong scaling inverted: %v -> %v", first, last)
	}
	oneServerCountedWork(t, tab)
	t.Log("\n" + tab.String())
}

func TestFig7Shape(t *testing.T) {
	tab := runQuick(t, Fig7DWIScaling)
	// Later iterations cost more than early ones at the smallest scale
	// (column 1 = mpi, column 2 = mona): the cost grows with the data only
	// if both arms counted their work.
	for col := 1; col <= 2; col++ {
		early := cellF(t, tab, 0, col)
		late := cellF(t, tab, len(tab.Rows)-1, col)
		if late <= early {
			t.Fatalf("%s: DWI cost did not grow: %v -> %v", tab.Columns[col], early, late)
		}
	}
	t.Log("\n" + tab.String())
}

func TestFig8Shape(t *testing.T) {
	tab := runQuick(t, Fig8Frameworks)
	vals := map[string]float64{}
	for i, row := range tab.Rows {
		vals[row[0]] = cellF(t, tab, i, 1)
	}
	// The paper's ordering: Colza beats Damaris under both layers;
	// DataSpaces beats Colza+MoNA but not Colza+MPI. DataSpaces places
	// blocks as Colza does and runs the same MPI pipeline, so it does
	// exactly the Colza+MPI arm's work over the same layer.
	if vals["damaris"] <= vals["colza+mona"] {
		t.Fatalf("damaris (%.3f) should be slower than colza+mona (%.3f)", vals["damaris"], vals["colza+mona"])
	}
	if vals["damaris"] <= vals["colza+mpi"] {
		t.Fatalf("damaris (%.3f) should be slower than colza+mpi (%.3f)", vals["damaris"], vals["colza+mpi"])
	}
	if vals["dataspaces"] != vals["colza+mpi"] || vals["dataspaces"] >= vals["colza+mona"] {
		t.Fatalf("dataspaces (%v) should equal colza+mpi (%v) and beat colza+mona (%v)", vals["dataspaces"], vals["colza+mpi"], vals["colza+mona"])
	}
	t.Log("\n" + tab.String())
}

func TestFig9Shape(t *testing.T) {
	tab := runQuick(t, Fig9MandelbulbElastic)
	// Servers must grow across the run.
	first := cellF(t, tab, 0, 1)
	last := cellF(t, tab, len(tab.Rows)-1, 1)
	if last <= first {
		t.Fatalf("staging area did not grow: %v -> %v", first, last)
	}
	// activate/deactivate overheads are small relative to execute, as the
	// paper reports (ms vs s regime).
	for i := range tab.Rows {
		if cellF(t, tab, i, 5) > cellF(t, tab, i, 4)+0.5 {
			t.Fatalf("row %d: deactivate slower than execute?", i)
		}
	}
	t.Log("\n" + tab.String())
}

func TestFig10Shape(t *testing.T) {
	tab := runQuick(t, Fig10DWIElastic)
	n := len(tab.Rows)
	// Static small keeps climbing: final iteration much dearer than first.
	sFirst, sLast := cellF(t, tab, 0, 1), cellF(t, tab, n-1, 1)
	if sLast <= sFirst {
		t.Fatalf("static-small cost did not grow: %v -> %v", sFirst, sLast)
	}
	// At the end, elastic beats static small (that's the point).
	eLast := cellF(t, tab, n-1, 3)
	if eLast >= sLast {
		t.Fatalf("elastic final (%v) should beat static-small final (%v)", eLast, sLast)
	}
	// Elastic ends at the large size.
	if cellF(t, tab, n-1, 4) <= cellF(t, tab, 0, 4) {
		t.Fatal("elastic run never grew")
	}
	t.Log("\n" + tab.String())
}

// The pipeline figures are costed from counted work, so a rerun on the
// same inputs prints the same table — on any host, under any load. Each
// figure is rerun once against its shape test's table (twice when run
// alone).
func TestPipelineFiguresDeterministic(t *testing.T) {
	for _, fig := range []func(bool) (*Table, error){Fig6GrayScottStrong, Fig10DWIElastic} {
		tab, err := fig(true)
		if err != nil {
			t.Fatal(err)
		}
		prev := lastQuick[tab.ID]
		if prev == nil {
			prev = runQuick(t, fig)
		}
		if a, b := prev.CSV(), tab.CSV(); a != b {
			t.Fatalf("%s: two runs differ:\n%s\n%s", tab.ID, a, b)
		}
	}
}

// The "MPI" arms are the paper's communicator dependency injection: the
// same pipeline body over a static mini-MPI world does exactly the
// per-rank work the Colza arm does, so the mona/mpi columns differ only by
// the communication layer. Figs. 5-8 call sameWork at every scale and fail
// on a difference (TestFig5Shape-TestFig8Shape); this pins that sameWork
// tells equal per-rank work from any other.
func TestMPIAndMoNAArmsSeeSameWork(t *testing.T) {
	two := []catalyst.Stats{{LocalCells: 8, LocalTriangles: 3}, {LocalCells: 5}}
	if err := sameWork(two, slices.Clone(two)); err != nil {
		t.Fatal(err)
	}
	for _, other := range [][]catalyst.Stats{
		nil,
		two[:1],
		{{LocalCells: 8, LocalTriangles: 4}, {LocalCells: 5}},
		{{LocalCells: 8, LocalTriangles: 3}, {LocalCells: 6}},
	} {
		if sameWork(two, other) == nil {
			t.Fatalf("sameWork accepted %v against %v", other, two)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	for _, e := range []Experiment{
		{"a1", "", func(q bool) (*Table, error) { return AblationA1TreeShapes(q), nil }},
		{"a2", "", func(q bool) (*Table, error) { return AblationA2EagerLimit(q), nil }},
		{"a4", "", func(q bool) (*Table, error) { return AblationA4BufferCache(q), nil }},
	} {
		tab, err := e.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", e.Name)
		}
	}
	tab, err := AblationA3Compositing(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("a3 empty")
	}
	tab5 := AblationA5GossipPeriod(true)
	if len(tab5.Rows) != 4 {
		t.Fatalf("a5 rows = %d", len(tab5.Rows))
	}
	// Propagation time grows with the gossip period.
	if cellF(t, tab5, 3, 1) <= cellF(t, tab5, 0, 1) {
		t.Fatalf("a5: propagation at 50ms period (%v) should exceed 5ms period (%v)",
			cellF(t, tab5, 3, 1), cellF(t, tab5, 0, 1))
	}
	_ = tab
}

// The registry is the paper's evaluation and the DESIGN.md ablations, in
// presentation order — the order colza-bench runs and prints them in.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1a", "fig4", "table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"a1", "a2", "a3", "a4", "a5", "ext-autoscale", "ext-shm",
	}
	var got []string
	for _, e := range All() {
		got = append(got, e.Name)
		if _, err := Lookup(e.Name); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registered experiments = %v, want %v", got, want)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown lookup should fail")
	}
}

// The autoscale extension observes execute time costed from counted work
// on a virtual clock, so the run's shape is exact on every machine: the DWI
// workload crosses the 10ms target at iteration 7 and the policy grows
// the staging area 1 -> 4 with one cooldown hold between actions.
func TestExtAutoscaleShape(t *testing.T) {
	tab, err := ExtAutoscale(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(tab.Rows))
	}
	wantServers := []string{"1", "1", "1", "1", "1", "1", "1", "2", "2", "3", "3", "4"}
	wantAction := map[int]string{7: "scale-up", 9: "scale-up", 11: "scale-up"}
	for i, row := range tab.Rows {
		if row[1] != wantServers[i] {
			t.Fatalf("iteration %d: servers = %s, want %s\n%s", i+1, row[1], wantServers[i], tab.String())
		}
		want := "hold"
		if a, ok := wantAction[i+1]; ok {
			want = a
		}
		if row[3] != want {
			t.Fatalf("iteration %d: action = %s, want %s\n%s", i+1, row[3], want, tab.String())
		}
	}
	t.Log("\n" + tab.String())
}

// Shared memory must beat the inter-node link at every size (footnote 12).
func TestExtSharedMemoryShape(t *testing.T) {
	tab, err := ExtSharedMemory(true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if cellF(t, tab, i, 3) <= 1 {
			t.Fatalf("row %d: inter/intra ratio %v, want > 1", i, cellF(t, tab, i, 3))
		}
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Columns: []string{"a", "b,comma"}}
	tab.Add("v1", `quote"inside`)
	csv := tab.CSV()
	want := "a,\"b,comma\"\nv1,\"quote\"\"inside\"\n"
	if csv != want {
		t.Fatalf("csv = %q, want %q", csv, want)
	}
}
