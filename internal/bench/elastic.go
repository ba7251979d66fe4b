package bench

import (
	"fmt"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/elastic"
	"colza/internal/sim"
	"colza/internal/vstack"
)

// Fig9MandelbulbElastic reproduces Figure 9: the Mandelbulb application
// running against a staging area that is grown during the run, recording
// the duration of each activate / stage / execute / deactivate call per
// iteration together with the staging-area size.
//
// As in the paper: execute time drops as servers are added; the iteration
// right after a join shows a spike (the new instance's warm-up), and
// activate absorbs the membership-agreement overhead when the group just
// changed.
func Fig9MandelbulbElastic(quick bool) (*Table, error) {
	startServers, maxServers := 2, 8
	iters := 16
	growEvery := 2
	dims := [3]int{24, 24, 12}
	if quick {
		startServers, maxServers = 1, 3
		iters = 6
		growEvery = 2
		dims = [3]int{14, 14, 8}
	}
	nBlocks := maxServers * 2
	mb := sim.DefaultMandelbulb(dims, nBlocks)
	imgW := 256
	fb := frameBytes(imgW, imgW)
	pcfg := catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: imgW, Height: imgW,
		ScalarRange: [2]float64{0, 32}, WarmupKiB: 2048,
	}
	t := &Table{
		ID:      "Fig. 9",
		Title:   "Mandelbulb with Colza grown during the run: per-call durations (s)",
		Note:    "servers added every 2 iterations; spikes right after joins are the new instance's warm-up; activate pays the view change",
		Columns: []string{"iteration", "servers", "activate_s", "stage_s", "execute_s", "deactivate_s"},
	}

	cl, h, err := newPipelineCluster(startServers, "fig9", catalyst.IsoPipelineType, pcfg)
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()

	metas := make([]core.BlockMeta, nBlocks)
	for b := 0; b < nBlocks; b++ {
		metas[b] = sim.MandelbulbMeta(mb, b)
	}
	current := startServers
	for it := 1; it <= iters; it++ {
		// Scale up between iterations, like the paper's periodic job
		// script: launch the daemon, provision it with the contact's
		// pipeline as the elastic controller does, and let the next
		// activate renegotiate the view.
		if it > 1 && (it-1)%growEvery == 0 && current < maxServers {
			s, err := cl.AddServer()
			if err != nil {
				return nil, err
			}
			if err := elastic.ProvisionFromDefs(cl.Admin, cl.Contact)(s.Addr()); err != nil {
				return nil, err
			}
			current++
		}
		enc := make([][]byte, nBlocks)
		for b := 0; b < nBlocks; b++ {
			enc[b] = sim.MandelbulbBlock(mb, b, uint64(it)).Encode()
		}

		t0 := time.Now()
		view, err := h.Activate(uint64(it))
		if err != nil {
			return nil, err
		}
		activateS := time.Since(t0).Seconds()

		t0 = time.Now()
		for b := 0; b < nBlocks; b++ {
			if err := h.Stage(uint64(it), metas[b], enc[b]); err != nil {
				return nil, err
			}
		}
		stageS := time.Since(t0).Seconds()

		results, err := h.Execute(uint64(it))
		if err != nil {
			return nil, err
		}
		executeS := simPipelineSeconds(isoCost, statsFromResults(results, true), vstack.MoNA, fb)

		t0 = time.Now()
		if err := h.Deactivate(uint64(it)); err != nil {
			return nil, err
		}
		deactivateS := time.Since(t0).Seconds()

		t.Add(it, len(view.Members), activateS, stageS, executeS, deactivateS)
	}
	return t, nil
}

// Fig10DWIElastic reproduces Figure 10: the Deep Water Impact proxy with
// (a) a small static staging area, (b) a large static staging area, and
// (c) an elastic staging area grown every other iteration once the data
// starts growing. The elastic run keeps the rendering time bounded while
// the small static run's time keeps climbing.
func Fig10DWIElastic(quick bool) (*Table, error) {
	small, large := 2, 8
	growStart := 10
	// Many thin blocks per server (the paper's 512 files over up to 72
	// processes): round-robin placement of thin slabs balances the load.
	dwi := sim.DWIConfig{Blocks: 64, Iterations: 30, BaseRes: 32, GrowthRes: 3}
	width := 256
	if quick {
		small, large = 1, 4
		growStart = 4
		dwi = sim.DWIConfig{Blocks: 32, Iterations: 10, BaseRes: 24, GrowthRes: 4}
		width = 128
	}
	fb := frameBytes(width, width)
	vcfg := catalyst.VolumeConfig{
		Field: "velocity", Width: width, Height: width, ScalarRange: [2]float64{0, 2},
		PointSize: 3, WarmupKiB: 1024,
	}
	t := &Table{
		ID:      "Fig. 10",
		Title:   "DWI proxy: execute time (s) — elastic vs static staging",
		Note:    fmt.Sprintf("elastic grows %d->%d, one server every other iteration from iteration %d", small, large, growStart),
		Columns: []string{"iteration", "static_small_s", "static_large_s", "elastic_s", "elastic_servers"},
	}

	// Static small, static large, elastic: one cluster each.
	var handles []*core.DistributedPipelineHandle
	var grown *Cluster
	for _, n := range []int{small, large, small} {
		cl, h, err := newPipelineCluster(n, "fig10", catalyst.VolumePipelineType, vcfg)
		if err != nil {
			return nil, err
		}
		defer cl.Shutdown()
		handles, grown = append(handles, h), cl
	}

	live := small
	for it := 1; it <= dwi.Iterations; it++ {
		// Elastic scale-up every other iteration once growth starts.
		if it >= growStart && (it-growStart)%2 == 0 && live < large {
			s, err := grown.AddServer()
			if err != nil {
				return nil, err
			}
			if err := elastic.ProvisionFromDefs(grown.Admin, grown.Contact)(s.Addr()); err != nil {
				return nil, err
			}
			live++
		}
		enc := make([][]byte, dwi.Blocks)
		metas := make([]core.BlockMeta, dwi.Blocks)
		for b := 0; b < dwi.Blocks; b++ {
			enc[b] = sim.DWIIterationBlock(dwi, it, b).Encode()
			metas[b] = core.BlockMeta{Field: "velocity", BlockID: b, Type: "ugrid"}
		}
		row := []interface{}{it}
		servers := 0
		for _, h := range handles {
			results, err := colzaIteration(h, uint64(it), metas, enc)
			if err != nil {
				return nil, err
			}
			row = append(row, simPipelineSeconds(volumeCost, statsFromResults(results, true), vstack.MoNA, fb))
			servers = len(results) // one result per member of the view the iteration pinned
		}
		t.Add(append(row, servers)...)
	}
	return t, nil
}
