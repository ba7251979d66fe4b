package catalyst

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/vtk"
)

// statsImage is a 2x2x2 block whose field "f" holds vals.
func statsImage(vals ...float32) []byte {
	img := vtk.NewImageData([3]int{2, 2, 2}, [3]float64{}, [3]float64{1, 1, 1})
	copy(img.AddPointArray("f", 1).Data, vals)
	return img.Encode()
}

// TestStatsSummariesAlwaysJSON: every execute's summary crosses the wire
// as JSON, which has no NaN or Inf. An empty iteration, a block that opens
// with NaN and a block of infinities all execute on a live two-server
// deployment, and the run totals after them count the finite samples only.
func TestStatsSummariesAlwaysJSON(t *testing.T) {
	net := na.NewInprocNetwork()
	servers := startServers(t, net, "statsjson", 2)
	ep, _ := net.Listen("statsjson-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)
	cfg, _ := json.Marshal(StatsConfig{Field: "f"})
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "stats", StatsPipelineType, cfg); err != nil {
			t.Fatal(err)
		}
	}
	h := client.Handle("stats", servers[0].Addr())
	h.SetTimeout(10 * time.Second)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	iterations := []struct {
		name   string
		blocks [][]byte
		want   map[string]float64 // every key but rank and size
	}{
		{"empty", nil, map[string]float64{"count": 0, "run_count": 0, "run_sum": 0}},
		{"NaN first", [][]byte{statsImage(nan, 1, 2, 3, 4, 5, 6, 7)}, map[string]float64{
			"count": 7, "mean": 4, "min": 1, "max": 7, "run_count": 0, "run_sum": 0,
		}},
		{"infinities", [][]byte{statsImage(-inf, 10, inf, 20, nan, -inf, 30, inf), statsImage(2, 2, 2, 2, 2, 2, 2, 2)}, map[string]float64{
			"count": 11, "mean": 76.0 / 11, "min": 2, "max": 30, "run_count": 7, "run_sum": 28,
			"run_mean": 4, "run_min": 1, "run_max": 7,
		}},
		{"finite", [][]byte{statsImage(-1, 0, 0, 0, 0, 0, 0, 1)}, map[string]float64{
			"count": 8, "mean": 0, "min": -1, "max": 1, "run_count": 18, "run_sum": 104,
			"run_mean": 104.0 / 18, "run_min": 1, "run_max": 30,
		}},
	}
	for i, iter := range iterations {
		it := uint64(i + 1)
		if _, err := h.Activate(it); err != nil {
			t.Fatal(err)
		}
		for b, blk := range iter.blocks {
			if err := h.Stage(it, core.BlockMeta{BlockID: b, Type: "imagedata"}, blk); err != nil {
				t.Fatal(err)
			}
		}
		res, err := h.Execute(it)
		if err != nil {
			t.Fatalf("%s: %v", iter.name, err)
		}
		if len(res) != 2 {
			t.Fatalf("%s: %d results, want 2", iter.name, len(res))
		}
		for r, er := range res {
			if len(er.Summary) != len(iter.want)+2 {
				t.Errorf("%s: rank %d summary %v, want the keys of %v plus rank and size", iter.name, r, er.Summary, iter.want)
			}
			for k, want := range iter.want {
				if got, ok := er.Summary[k]; !ok || got != want {
					t.Errorf("%s: rank %d %s = %v (present %v), want %v", iter.name, r, k, got, ok, want)
				}
			}
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsStateRefusesNonFinite: a checkpoint whose moments could put NaN
// or Inf into a summary is refused; an entry without samples may carry any
// extrema.
func TestStatsStateRefusesNonFinite(t *testing.T) {
	for _, tc := range []struct {
		m  runningMoments
		ok bool
	}{
		{runningMoments{Count: 1, Sum: math.NaN(), Min: 1, Max: 1, Iters: 1}, false},
		{runningMoments{Count: 0, Sum: math.Inf(1), Iters: 1}, false},
		{runningMoments{Count: 2, Sum: 3, Min: math.Inf(-1), Max: 2, Iters: 1}, false},
		{runningMoments{Count: 2, Sum: 3, Min: 1, Max: math.NaN(), Iters: 1}, false},
		{runningMoments{Count: 0, Sum: 0, Min: math.Inf(1), Max: math.Inf(-1), Iters: 1}, true},
	} {
		src := &StatsPipeline{origin: "o", running: map[string]runningMoments{"o": tc.m}}
		blob, _ := src.ExportState()
		if _, err := parseStatsState(blob); (err == nil) != tc.ok {
			t.Errorf("%+v: parse err = %v, want accepted %v", tc.m, err, tc.ok)
		}
	}
}

// TestStatsRunSumDeterministic: the run totals fold origins in sorted id
// order, so an instance holding several origins' moments — whose float sum
// depends on the order it is taken in — reports the same run_sum bits on
// every execute.
func TestStatsRunSumDeterministic(t *testing.T) {
	p := newStatsForTest(t, "f")
	var sums []float64
	// Far apart in magnitude, so a partial sum rounds away what a later
	// origin would have cancelled.
	for _, v := range []float32{1e8, 3.3e-3, -1e8, 0.7, 1.1e-5} {
		src := newStatsForTest(t, "f")
		foldIteration(t, src, 1, []float32{v, 0.25, 0, 0, 0, 0, 0, 0})
		sums = append(sums, src.running[src.origin].Sum)
		blob, _ := src.ExportState()
		if err := p.ImportState(blob); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	// The data must make the order matter, or the test shows nothing.
	orders := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		var s float64
		for _, j := range rng.Perm(len(sums)) {
			s += sums[j]
		}
		orders[math.Float64bits(s)] = true
	}
	if len(orders) < 2 {
		t.Fatal("every summation order gives the same bits; pick other samples")
	}
	ids := make([]string, 0, len(p.running))
	for id := range p.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var want float64
	for _, id := range ids {
		want += p.running[id].Sum
	}
	if err := p.Activate(core.IterationContext{Iteration: 2, Size: 1, Comm: newSingletonComm(t)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		res, err := p.Execute(2)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Summary["run_sum"]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("execute %d: run_sum %v, want %v (origins in sorted order)", i, got, want)
		}
	}
}
