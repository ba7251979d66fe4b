package catalyst

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"colza/internal/collectives"
	"colza/internal/core"
	"colza/internal/minimpi"
)

// TestReduceStatsShortRecord: a peer's record shorter than the accumulator
// folds into its prefix and reads nothing past its end.
func TestReduceStatsShortRecord(t *testing.T) {
	acc := make([]byte, 64)
	binary.LittleEndian.PutUint64(acc, math.Float64bits(1.5))
	binary.LittleEndian.PutUint64(acc[40:], math.Float64bits(3))
	in := make([]byte, 20)
	binary.LittleEndian.PutUint64(in, math.Float64bits(2))
	reduceStats(acc, in)
	if got := math.Float64frombits(binary.LittleEndian.Uint64(acc)); got != 3.5 {
		t.Fatalf("sum = %v, want 3.5", got)
	}
	if got := math.Float64frombits(binary.LittleEndian.Uint64(acc[40:])); got != 3 {
		t.Fatalf("a minimum the short record does not reach changed to %v", got)
	}
}

// TestStatsExecuteMatchesSixReductions: the one-record reduction reports
// the same summary bits as the six separate all-reduces it replaced
// (referenceStatsExecute), on random finite data over 1-5 ranks with a
// history of completed iterations on every instance.
func TestStatsExecuteMatchesSixReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sample := func() float32 { return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))) }
	block := func() []float32 {
		vals := make([]float32, 8)
		for i := range vals {
			vals[i] = sample()
		}
		return vals
	}
	for trial := 0; trial < 20; trial++ {
		n := 1 + trial%5
		ps := make([]*StatsPipeline, n)
		for r := range ps {
			ps[r] = newStatsForTest(t, "f")
			for it, iters := uint64(1), uint64(rng.Intn(3)); it <= iters; it++ {
				foldIteration(t, ps[r], it, block())
			}
		}
		world, ref := minimpi.World(n), minimpi.World(n)
		for r, p := range ps {
			if err := p.Activate(core.IterationContext{Iteration: 9, Rank: r, Size: n, Comm: world[r]}); err != nil {
				t.Fatal(err)
			}
			// Rank 0 always holds a block: the old reduction reported +Inf
			// extrema for an empty iteration.
			for b, nb := 0, rng.Intn(3)+btoi(r == 0); b < nb; b++ {
				if err := p.Stage(9, core.BlockMeta{BlockID: 10*r + b, Type: "imagedata"}, statsImage(block()...)); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, want := make([]map[string]float64, n), make([]map[string]float64, n)
		var wg sync.WaitGroup
		errs := make([]error, 2*n)
		for r, p := range ps {
			wg.Add(2)
			go func() {
				defer wg.Done()
				var res core.ExecResult
				res, errs[r] = p.Execute(9)
				got[r] = res.Summary
			}()
			go func() {
				defer wg.Done()
				want[r], errs[n+r] = referenceStatsExecute(p, ref[r])
			}()
		}
		wg.Wait()
		for r := range ps {
			world[r].Finalize()
			ref[r].Finalize()
		}
		for r := range ps {
			if errs[r] != nil || errs[n+r] != nil {
				t.Fatalf("trial %d rank %d: %v / %v", trial, r, errs[r], errs[n+r])
			}
			if len(got[r]) != len(want[r]) {
				t.Fatalf("trial %d rank %d: summary %v, want %v", trial, r, got[r], want[r])
			}
			for k, w := range want[r] {
				if math.Float64bits(got[r][k]) != math.Float64bits(w) {
					t.Fatalf("trial %d (%d ranks) rank %d: %s = %v, want %v", trial, n, r, k, got[r][k], w)
				}
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// referenceStatsExecute is StatsPipeline.Execute as it was before the
// record reduction, kept to pin the new one's bits: iteration sum and
// count in one all-reduce, float32 extrema in two more, and the same three
// for the run totals. It reads p's staged blocks and running moments and
// reduces over c; every instance holds its own origin only here, so its
// map-order fold of the run sum is deterministic.
func referenceStatsExecute(p *StatsPipeline, c *minimpi.Comm) (map[string]float64, error) {
	p.mu.Lock()
	ctx := p.ctx
	blocks := p.blocks
	field := p.cfg.Field
	var runCount int64
	var runSum float64
	runLo := math.Inf(1)
	runHi := math.Inf(-1)
	for _, m := range p.running {
		runCount += m.Count
		runSum += m.Sum
		if m.Count > 0 {
			if m.Min < runLo {
				runLo = m.Min
			}
			if m.Max > runHi {
				runHi = m.Max
			}
		}
	}
	p.mu.Unlock()

	var sum float64
	var count int64
	lo := float32(math.Inf(1))
	hi := float32(math.Inf(-1))
	for _, img := range blocks {
		arr, err := img.PointArray(field)
		if err != nil {
			return nil, err
		}
		for _, v := range arr.Data {
			sum += float64(v)
			count++
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}

	sumCount := func(a, in []byte) []byte {
		collectives.SumFloat64(a[:8], in[:8])
		collectives.SumInt64(a[8:], in[8:])
		return a
	}
	acc := make([]byte, 16)
	binary.LittleEndian.PutUint64(acc, math.Float64bits(sum))
	binary.LittleEndian.PutUint64(acc[8:], uint64(count))
	sums, err := c.AllReduce(6200, acc, sumCount)
	if err != nil {
		return nil, err
	}
	loBuf := make([]byte, 4)
	binary.LittleEndian.PutUint32(loBuf, math.Float32bits(lo))
	loOut, err := c.AllReduce(6201, loBuf, collectives.MinFloat32)
	if err != nil {
		return nil, err
	}
	hiBuf := make([]byte, 4)
	binary.LittleEndian.PutUint32(hiBuf, math.Float32bits(hi))
	hiOut, err := c.AllReduce(6202, hiBuf, collectives.MaxFloat32)
	if err != nil {
		return nil, err
	}

	rAcc := make([]byte, 16)
	binary.LittleEndian.PutUint64(rAcc, math.Float64bits(runSum))
	binary.LittleEndian.PutUint64(rAcc[8:], uint64(runCount))
	rSums, err := c.AllReduce(6210, rAcc, sumCount)
	if err != nil {
		return nil, err
	}
	rLoBuf := make([]byte, 8)
	binary.LittleEndian.PutUint64(rLoBuf, math.Float64bits(runLo))
	rLoOut, err := c.AllReduce(6211, rLoBuf, referenceMinFloat64)
	if err != nil {
		return nil, err
	}
	rHiBuf := make([]byte, 8)
	binary.LittleEndian.PutUint64(rHiBuf, math.Float64bits(runHi))
	rHiOut, err := c.AllReduce(6212, rHiBuf, referenceMaxFloat64)
	if err != nil {
		return nil, err
	}

	gSum := math.Float64frombits(binary.LittleEndian.Uint64(sums))
	gCount := int64(binary.LittleEndian.Uint64(sums[8:]))
	mean := 0.0
	if gCount > 0 {
		mean = gSum / float64(gCount)
	}
	gRunSum := math.Float64frombits(binary.LittleEndian.Uint64(rSums))
	gRunCount := int64(binary.LittleEndian.Uint64(rSums[8:]))
	out := map[string]float64{
		"count": float64(gCount),
		"mean":  mean,
		"min":   float64(math.Float32frombits(binary.LittleEndian.Uint32(loOut))),
		"max":   float64(math.Float32frombits(binary.LittleEndian.Uint32(hiOut))),
		"rank":  float64(ctx.Rank),
		"size":  float64(ctx.Size),
	}
	out["run_count"] = float64(gRunCount)
	out["run_sum"] = gRunSum
	if gRunCount > 0 {
		out["run_mean"] = gRunSum / float64(gRunCount)
		out["run_min"] = math.Float64frombits(binary.LittleEndian.Uint64(rLoOut))
		out["run_max"] = math.Float64frombits(binary.LittleEndian.Uint64(rHiOut))
	}
	return out, nil
}

func referenceMinFloat64(a, in []byte) []byte {
	if math.Float64frombits(binary.LittleEndian.Uint64(in)) < math.Float64frombits(binary.LittleEndian.Uint64(a)) {
		copy(a, in[:8])
	}
	return a
}

func referenceMaxFloat64(a, in []byte) []byte {
	if math.Float64frombits(binary.LittleEndian.Uint64(in)) > math.Float64frombits(binary.LittleEndian.Uint64(a)) {
		copy(a, in[:8])
	}
	return a
}
