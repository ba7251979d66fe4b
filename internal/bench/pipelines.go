package bench

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/icet"
	"colza/internal/margo"
	"colza/internal/minimpi"
	"colza/internal/na"
	"colza/internal/sim"
	"colza/internal/staging"
	"colza/internal/vstack"
	"colza/internal/vtk"
)

// pipelineScales picks the server counts for the scaling figures.
func pipelineScales(quick bool) []int {
	if quick {
		return []int{1, 2, 4}
	}
	return []int{2, 4, 8, 16}
}

// mpiArm runs a pipeline body on every rank of a static mini-MPI world
// over the blocks DefaultPlacement puts there — the "MPI" arm of Figs.
// 5-8 — and returns each rank's stats.
func mpiArm[B any](n int, metas []core.BlockMeta, blocks []B, body func(*vtk.Controller, []B) (catalyst.Stats, error)) ([]catalyst.Stats, error) {
	byRank := make([][]B, n)
	for b := range blocks {
		r := core.DefaultPlacement(metas[b], n)
		byRank[r] = append(byRank[r], blocks[b])
	}
	world := minimpi.World(n)
	defer world[0].Finalize()
	errs := make([]error, n)
	stats := make([]catalyst.Stats, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			stats[r], errs[r] = body(vtk.NewController("mpi", world[r]), byRank[r])
		}(r)
	}
	wg.Wait()
	return stats, errors.Join(errs...)
}

func isoBody(cfg catalyst.IsoConfig) func(*vtk.Controller, []*vtk.ImageData) (catalyst.Stats, error) {
	return func(ctrl *vtk.Controller, blocks []*vtk.ImageData) (catalyst.Stats, error) {
		st, _, err := catalyst.ExecuteIso(ctrl, blocks, cfg)
		return st, err
	}
}

func volumeBody(cfg catalyst.VolumeConfig) func(*vtk.Controller, []*vtk.UnstructuredGrid) (catalyst.Stats, error) {
	return func(ctrl *vtk.Controller, grids []*vtk.UnstructuredGrid) (catalyst.Stats, error) {
		st, _, err := catalyst.ExecuteVolume(ctrl, grids, cfg)
		return st, err
	}
}

// colzaIteration drives one full activate/stage/execute/deactivate round
// through a handle and returns the per-server execute results.
func colzaIteration(h *core.DistributedPipelineHandle, it uint64, metas []core.BlockMeta, blocks [][]byte) ([]core.ExecResult, error) {
	if _, err := h.Activate(it); err != nil {
		return nil, err
	}
	for i := range blocks {
		if err := h.Stage(it, metas[i], blocks[i]); err != nil {
			return nil, err
		}
	}
	results, err := h.Execute(it)
	if err != nil {
		return nil, err
	}
	if err := h.Deactivate(it); err != nil {
		return nil, err
	}
	return results, nil
}

// compareArms runs iteration it of the Colza arm through h (MoNA), checks
// that it saw the per-rank work the MPI arm reported in mpi, and returns
// each arm's reconstructed time at cost c without warm-up.
func compareArms(c workCost, h *core.DistributedPipelineHandle, it uint64, metas []core.BlockMeta, enc [][]byte, fb int, mpi []catalyst.Stats) (mpiSecs, monaSecs float64, err error) {
	results, err := colzaIteration(h, it, metas, enc)
	if err != nil {
		return 0, 0, err
	}
	colza := statsFromResults(results, false)
	if err := sameWork(mpi, colza); err != nil {
		return 0, 0, err
	}
	return simPipelineSeconds(c, mpi, vstack.VendorMPI, fb), simPipelineSeconds(c, colza, vstack.MoNA, fb), nil
}

// Fig5MandelbulbWeak reproduces Figure 5: Mandelbulb pipeline execution
// time at several staging sizes with a fixed per-server workload (weak
// scaling), MPI vs MoNA. Warm-up is not charged, as the paper discards
// the first iteration.
func Fig5MandelbulbWeak(quick bool) (*Table, error) {
	scales := pipelineScales(quick)
	blocksPerServer := 2
	dims := [3]int{28, 28, 14}
	if quick {
		dims = [3]int{14, 14, 8}
	}
	imgW := 256
	t := &Table{
		ID:      "Fig. 5",
		Title:   "Mandelbulb weak scaling: pipeline execution time (s), warm-up excluded",
		Note:    fmt.Sprintf("%d blocks of %v per server; compute costed from counted work (DESIGN.md sub. 7); flat lines = weak scaling holds", blocksPerServer, dims),
		Columns: []string{"servers", "mpi_s", "mona_s", "mona/mpi"},
	}
	pcfg := catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: imgW, Height: imgW,
		ScalarRange: [2]float64{0, 32}, WarmupKiB: 256,
	}
	for _, s := range scales {
		nBlocks := s * blocksPerServer
		mb := sim.DefaultMandelbulb(dims, nBlocks)
		imgs := make([]*vtk.ImageData, nBlocks)
		enc := make([][]byte, nBlocks)
		metas := make([]core.BlockMeta, nBlocks)
		for b := range imgs {
			metas[b] = sim.MandelbulbMeta(mb, b)
			imgs[b] = sim.MandelbulbBlock(mb, b, 1)
			enc[b] = imgs[b].Encode()
		}
		mpi, err := mpiArm(s, metas, imgs, isoBody(pcfg))
		if err != nil {
			return nil, err
		}
		cl, h, err := newPipelineCluster(s, "fig5", catalyst.IsoPipelineType, pcfg)
		if err != nil {
			return nil, err
		}
		mpiS, monaS, err := compareArms(isoCost, h, 1, metas, enc, frameBytes(imgW, imgW), mpi)
		cl.Shutdown()
		if err != nil {
			return nil, err
		}
		t.Add(s, mpiS, monaS, monaS/mpiS)
	}
	return t, nil
}

// Fig6GrayScottStrong reproduces Figure 6: Gray-Scott pipeline execution
// time with a fixed total domain across staging sizes (strong scaling).
func Fig6GrayScottStrong(quick bool) (*Table, error) {
	scales := pipelineScales(quick)
	global := [3]int{48, 48, 48}
	steps := 60
	nBlocks := 16
	if quick {
		global = [3]int{24, 24, 24}
		steps = 30
		nBlocks = 8
	}
	imgW := 256
	t := &Table{
		ID:      "Fig. 6",
		Title:   "Gray-Scott strong scaling: pipeline execution time (s), fixed total domain",
		Note:    fmt.Sprintf("domain %v cut into %d blocks; time falls as servers grow; MPI vs MoNA on par", global, nBlocks),
		Columns: []string{"servers", "mpi_s", "mona_s", "mona/mpi"},
	}

	gs := sim.NewGrayScott(nil, global, sim.DefaultGrayScott())
	if err := gs.Step(steps); err != nil {
		return nil, err
	}
	blocks, metas, err := sliceImageZ(gs.Block(), nBlocks)
	if err != nil {
		return nil, err
	}
	enc := make([][]byte, len(blocks))
	for i, b := range blocks {
		enc[i] = b.Encode()
	}
	pcfg := catalyst.IsoConfig{
		Field: "V", IsoValues: []float64{0.1, 0.2, 0.3}, Width: imgW, Height: imgW,
		ScalarRange: [2]float64{0, 0.5},
		Clip:        &catalyst.ClipSpec{Normal: [3]float64{1, 0, 0}, Offset: float64(global[0]) / 2},
		WarmupKiB:   256,
	}
	for _, s := range scales {
		mpi, err := mpiArm(s, metas, blocks, isoBody(pcfg))
		if err != nil {
			return nil, err
		}
		cl, h, err := newPipelineCluster(s, "fig6", catalyst.IsoPipelineType, pcfg)
		if err != nil {
			return nil, err
		}
		mpiS, monaS, err := compareArms(isoCost, h, 1, metas, enc, frameBytes(imgW, imgW), mpi)
		cl.Shutdown()
		if err != nil {
			return nil, err
		}
		t.Add(s, mpiS, monaS, monaS/mpiS)
	}
	return t, nil
}

// sliceImageZ cuts an ImageData into nb z-slabs sharing boundary planes.
func sliceImageZ(img *vtk.ImageData, nb int) ([]*vtk.ImageData, []core.BlockMeta, error) {
	nz := img.Dims[2]
	if nb > nz-1 {
		nb = nz - 1
	}
	var out []*vtk.ImageData
	var metas []core.BlockMeta
	per := (nz - 1) / nb
	for b := 0; b < nb; b++ {
		z0 := b * per
		z1 := z0 + per + 1
		if b == nb-1 {
			z1 = nz
		}
		blk := vtk.NewImageData([3]int{img.Dims[0], img.Dims[1], z1 - z0},
			[3]float64{img.Origin[0], img.Origin[1], img.Origin[2] + float64(z0)*img.Spacing[2]},
			img.Spacing)
		for _, src := range img.PointData {
			dst := blk.AddPointArray(src.Name, src.Components)
			slab := img.Dims[0] * img.Dims[1] * src.Components
			copy(dst.Data, src.Data[z0*slab:z1*slab])
		}
		out = append(out, blk)
		metas = append(metas, core.BlockMeta{
			Field: "V", BlockID: b, Type: "imagedata",
			Dims: blk.Dims, Origin: blk.Origin, Spacing: blk.Spacing,
		})
	}
	return out, metas, nil
}

// Fig7DWIScaling reproduces Figure 7: per-iteration rendering time of the
// DWI proxy at several scales, MPI vs MoNA.
func Fig7DWIScaling(quick bool) (*Table, error) {
	scales := []int{2, 4, 8}
	dwi := sim.DWIConfig{Blocks: 64, Iterations: 30, BaseRes: 28, GrowthRes: 2}
	if quick {
		scales = []int{2, 4}
		dwi = sim.DWIConfig{Blocks: 24, Iterations: 8, BaseRes: 18, GrowthRes: 3}
	}
	imgW := 256
	cols := []string{"iteration"}
	for _, s := range scales {
		cols = append(cols, fmt.Sprintf("mpi_%d", s), fmt.Sprintf("mona_%d", s))
	}
	t := &Table{
		ID:      "Fig. 7",
		Title:   "DWI proxy: pipeline execution time (s) per iteration, MPI vs MoNA",
		Note:    "rendering payload grows with iteration; larger staging areas keep the time down",
		Columns: cols,
	}
	vcfg := catalyst.VolumeConfig{
		Field: "velocity", Width: imgW, Height: imgW, ScalarRange: [2]float64{0, 2},
		PointSize: 3, WarmupKiB: 256,
	}

	rows := make([][]interface{}, dwi.Iterations)
	for it := range rows {
		rows[it] = []interface{}{it + 1}
	}
	for _, s := range scales {
		cl, h, err := newPipelineCluster(s, "fig7", catalyst.VolumePipelineType, vcfg)
		if err != nil {
			return nil, err
		}
		for it := 1; it <= dwi.Iterations; it++ {
			grids := make([]*vtk.UnstructuredGrid, dwi.Blocks)
			enc := make([][]byte, dwi.Blocks)
			metas := make([]core.BlockMeta, dwi.Blocks)
			for b := range grids {
				grids[b] = sim.DWIIterationBlock(dwi, it, b)
				enc[b] = grids[b].Encode()
				metas[b] = core.BlockMeta{Field: "velocity", BlockID: b, Type: "ugrid"}
			}
			mpi, err := mpiArm(s, metas, grids, volumeBody(vcfg))
			if err != nil {
				cl.Shutdown()
				return nil, err
			}
			mpiS, monaS, err := compareArms(volumeCost, h, uint64(it), metas, enc, frameBytes(imgW, imgW), mpi)
			if err != nil {
				cl.Shutdown()
				return nil, err
			}
			rows[it-1] = append(rows[it-1], mpiS, monaS)
		}
		cl.Shutdown()
	}
	for _, row := range rows {
		t.Add(row...)
	}
	return t, nil
}

// Fig8Frameworks reproduces Figure 8: Mandelbulb pipeline execution time
// under Colza (MoNA and MPI layers), Damaris, and DataSpaces.
func Fig8Frameworks(quick bool) (*Table, error) {
	clients, servers := 8, 4
	dims := [3]int{24, 24, 12}
	if quick {
		clients, servers = 4, 2
		dims = [3]int{14, 14, 8}
	}
	blocksPerClient := 2
	nBlocks := clients * blocksPerClient
	imgW := 256
	fb := frameBytes(imgW, imgW)
	mb := sim.DefaultMandelbulb(dims, nBlocks)
	pcfg := catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: imgW, Height: imgW,
		ScalarRange: [2]float64{0, 32}, WarmupKiB: 128,
	}
	t := &Table{
		ID:      "Fig. 8",
		Title:   "Mandelbulb pipeline execution time (s) across frameworks",
		Note:    "Damaris pays per-client trigger skew (clients signal independently); DataSpaces and Colza+MPI share the static pipeline path",
		Columns: []string{"framework", "exec_s", "vs_colza_mona"},
	}

	imgs := make([]*vtk.ImageData, nBlocks)
	enc := make([][]byte, nBlocks)
	metas := make([]core.BlockMeta, nBlocks)
	for b := range imgs {
		metas[b] = sim.MandelbulbMeta(mb, b)
		imgs[b] = sim.MandelbulbBlock(mb, b, 1)
		enc[b] = imgs[b].Encode()
	}

	// --- Colza + MoNA and Colza + MPI.
	mpi, err := mpiArm(servers, metas, imgs, isoBody(pcfg))
	if err != nil {
		return nil, err
	}
	cl, h, err := newPipelineCluster(servers, "fig8", catalyst.IsoPipelineType, pcfg)
	if err != nil {
		return nil, err
	}
	mpiS, monaS, err := compareArms(isoCost, h, 1, metas, enc, fb, mpi)
	cl.Shutdown()
	if err != nil {
		return nil, err
	}

	// --- Damaris: per-client signals with client-side skew. In the paper
	// the skew arises from clients reaching damaris_signal at different
	// times; here it is injected as a uniform spread of about one pipeline
	// time. The simulated staging-area plugin time is the signal skew
	// (early servers wait in the plugin's first collective for the
	// stragglers) plus the parallel pipeline time.
	dam, err := staging.DeployDamaris(staging.DamarisConfig{Clients: clients, Servers: servers, Iso: pcfg})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(8))
	skewSpan := 1.2 * (monaS + 0.002)
	minSig, maxSig := math.Inf(1), math.Inf(-1)
	for c, dc := range dam.Clients() {
		sig := rng.Float64() * skewSpan
		minSig, maxSig = min(minSig, sig), max(maxSig, sig)
		for b := 0; b < blocksPerClient; b++ {
			dc.Write(1, imgs[c*blocksPerClient+b])
		}
		dc.Signal(1)
	}
	stats := make([]catalyst.Stats, servers)
	for s := 0; s < servers; s++ {
		r := <-dam.Results(s)
		if r.Err != nil {
			dam.Shutdown()
			return nil, r.Err
		}
		stats[r.Server] = r.Stats
	}
	dam.Shutdown()
	damS := (maxSig - minSig) + simPipelineSeconds(isoCost, stats, vstack.VendorMPI, fb)

	// --- DataSpaces: static Margo staging, single trigger, MPI pipeline.
	dsNet := na.NewInprocNetwork()
	ds, err := staging.DeployDataSpaces(dsNet, staging.DataSpacesConfig{Servers: servers, Iso: pcfg})
	if err != nil {
		return nil, err
	}
	defer ds.Shutdown()
	ep, err := dsNet.Listen("fig8-ds-client")
	if err != nil {
		return nil, err
	}
	dsClient := margo.NewInstance(ep)
	defer dsClient.Finalize()
	for b := range imgs {
		if err := ds.Put(dsClient, 1, b, imgs[b]); err != nil {
			return nil, err
		}
	}
	for _, r := range ds.Exec(1) {
		if r.Err != nil {
			return nil, r.Err
		}
		stats[r.Server] = r.Stats
	}
	dsS := simPipelineSeconds(isoCost, stats, vstack.VendorMPI, fb)

	for _, e := range []struct {
		name string
		v    float64
	}{
		{"colza+mona", monaS},
		{"colza+mpi", mpiS},
		{"damaris", damS},
		{"dataspaces", dsS},
	} {
		t.Add(e.name, e.v, e.v/monaS)
	}
	return t, nil
}

// AblationA3Compositing compares IceT strategies (DESIGN.md A3): modeled
// compositing cost on the Cori-calibrated network at several group sizes,
// cross-checked against the real collective for correctness elsewhere
// (internal/icet tests).
func AblationA3Compositing(quick bool) (*Table, error) {
	sizes := []int{4, 8, 16, 64}
	dim := 512
	if quick {
		sizes = []int{4, 8, 16}
		dim = 256
	}
	t := &Table{
		ID:      "Ablation A3",
		Title:   fmt.Sprintf("modeled compositing time (ms) per strategy, %dx%d frame", dim, dim),
		Columns: []string{"ranks", "tree_ms", "bswap_ms", "bswap/tree"},
	}
	fb := frameBytes(dim, dim)
	for _, n := range sizes {
		tree := compositeCostSecs(vstack.MoNA, fb, n, icet.TreeReduce) * 1000
		bswap := compositeCostSecs(vstack.MoNA, fb, n, icet.BinarySwap) * 1000
		t.Add(n, tree, bswap, bswap/tree)
	}
	return t, nil
}
