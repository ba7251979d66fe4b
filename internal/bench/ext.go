package bench

import (
	"fmt"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/elastic"
	"colza/internal/netem"
	"colza/internal/sim"
	"colza/internal/vstack"
)

// ExtAutoscale demonstrates the paper's future work (2) end to end: the
// DWI proxy's rendering cost grows every iteration; the elastic controller
// watches the pipeline execution time and grows (or shrinks) the staging
// area to keep it under the target — closed loop, no human in it. It runs
// as an external controller (always the leader) and actuates through the
// two paths the paper describes: scale-up launches a daemon that joins via
// SSG and is provisioned with the pipeline, scale-down goes through the
// admin leave RPC. The staging area and its block distribution are real;
// the observed execute time is reconstructed from counted work like every
// pipeline figure's, with the join iterations' warm-up left out (the
// policy's cooldown skips them), so the run's shape is identical on every
// machine.
func ExtAutoscale(quick bool) (*Table, error) {
	dwi := sim.DWIConfig{Blocks: 64, Iterations: 24, BaseRes: 32, GrowthRes: 3}
	width := 256
	maxServers := 10
	target := 60 * time.Millisecond
	if quick {
		dwi = sim.DWIConfig{Blocks: 32, Iterations: 12, BaseRes: 24, GrowthRes: 4}
		width = 128
		maxServers = 5
		target = 10 * time.Millisecond
	}
	fb := frameBytes(width, width)
	vcfg := catalyst.VolumeConfig{
		Field: "velocity", Width: width, Height: width, ScalarRange: [2]float64{0, 2},
		PointSize: 3, WarmupKiB: 512,
	}
	t := &Table{
		ID:      "Ext. autoscale",
		Title:   fmt.Sprintf("autoscaled DWI run: keep execute under %v (paper future work 2)", target),
		Note:    "closed loop: the autoscaler observes execute time and actuates SSG joins / admin leaves",
		Columns: []string{"iteration", "servers", "execute_s", "action"},
	}

	cl, h, err := newPipelineCluster(1, "auto", catalyst.VolumePipelineType, vcfg)
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()

	launch := elastic.LauncherFunc(func() error { _, err := cl.AddServer(); return err })
	ctl, err := elastic.NewController(elastic.Config{Target: target, Ceiling: maxServers},
		elastic.CoreDeps("", cl.Servers[0].Group.Members, cl.Admin, launch, cl.Obs))
	if err != nil {
		return nil, err
	}
	for it := 1; it <= dwi.Iterations; it++ {
		enc := make([][]byte, dwi.Blocks)
		metas := make([]core.BlockMeta, dwi.Blocks)
		for b := 0; b < dwi.Blocks; b++ {
			enc[b] = sim.DWIIterationBlock(dwi, it, b).Encode()
			metas[b] = core.BlockMeta{Field: "velocity", BlockID: b, Type: "ugrid"}
		}
		results, err := colzaIteration(h, uint64(it), metas, enc)
		if err != nil {
			return nil, err
		}
		secs := simPipelineSeconds(volumeCost, statsFromResults(results, false), vstack.MoNA, fb)
		v := ctl.Tick(time.Duration(secs*float64(time.Second)), len(results))
		t.Add(it, v.Servers, secs, v.Action)
	}
	return t, nil
}

// ExtSharedMemory quantifies the paper's footnote 12: MoNA uses shared
// memory between processes on the same node, which the authors suspect
// explains MoNA beating the MPI pipeline at small scales in Fig. 7. The
// virtual topology makes the comparison direct: the same MoNA protocol on
// an intra-node (shared-memory) link vs the Aries inter-node link.
func ExtSharedMemory(quick bool) (*Table, error) {
	ops := 1000
	if quick {
		ops = 200
	}
	t := &Table{
		ID:      "Ext. shm",
		Title:   "MoNA p2p time (us/op): same-node (shared memory) vs cross-node",
		Note:    "paper footnote 12: shared memory gives MoNA an edge when staging processes share a node",
		Columns: []string{"size", "intra_us", "inter_us", "inter/intra"},
	}
	intra := netem.CoriHaswell(1 << 20) // everyone on one node
	inter := netem.CoriHaswell(1)       // everyone on distinct nodes
	for _, size := range []int{8, 2 << 10, 16 << 10, 512 << 10} {
		di, err := vstack.PingPong(vstack.MoNA, intra, size, ops)
		if err != nil {
			return nil, err
		}
		de, err := vstack.PingPong(vstack.MoNA, inter, size, ops)
		if err != nil {
			return nil, err
		}
		iUS := float64(di/time.Duration(ops)) / float64(time.Microsecond)
		eUS := float64(de/time.Duration(ops)) / float64(time.Microsecond)
		t.Add(sizeLabel(size), fmt.Sprintf("%.2f", iUS), fmt.Sprintf("%.2f", eUS), eUS/iUS)
	}
	return t, nil
}
