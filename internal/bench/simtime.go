package bench

import (
	"fmt"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/netem"
	"colza/internal/vstack"
)

// The pipeline experiments (Figs. 5–10, ext-autoscale) report
// *reconstructed parallel time*: the harness runs on a machine with fewer
// cores than simulated servers (this repository's reference environment
// has one or two), where wall clocks can never show parallel speedup.
// Every pipeline iteration runs for real; each rank reports the work it
// did (catalyst.Stats counts) and the reconstruction is
//
//	max_r(warmup_r + extract_r) + bounds-exchange + max_r(render_r) +
//	composite(layer, image size, n)
//
// with the compute phases costed as counted work times isoCost or
// volumeCost and the communication phases on the same Cori-calibrated
// network models as Tables I-II, per communication layer (vendor MPI for
// the "MPI" arms, MoNA for the Colza arms). This is DESIGN.md
// substitution 7.

// workCost is one pipeline's compute cost per counted unit, in seconds.
type workCost struct {
	extractPerCell, extractPerTri float64
	renderPerCell, renderPerTri   float64
}

// isoCost and volumeCost are the one table per-rank compute comes from.
// The iso row is BenchmarkComputeCost's reading on the reference box
// before the iso kernels' pixel-centre box and voxel skips; it is kept,
// not re-measured, so the frozen Figs. 5–10 and ext-autoscale rows stay
// byte-identical (they cost counted work, which those kernels did not
// change). The benchmark now reads ~3.9 ns/cell and ~153 ns/triangle
// extract, ~243 ns/triangle render, on a day the previous kernels read
// 4.9, 198 and 264 (DESIGN.md §2, substitution 7). The volume row is the
// cost ext-autoscale already modelled, kept so its frozen rows hold; that
// benchmark reads ~150 ns/cell merge and ~1.1 µs/cell splat.
var (
	isoCost    = workCost{extractPerCell: 7e-9, extractPerTri: 175e-9, renderPerTri: 280e-9}
	volumeCost = workCost{extractPerCell: 600e-9, renderPerCell: 400e-9}
)

// warmupSecPerKiB costs an instance's first-execute warm-up (2.5 µs/KiB
// by BenchmarkComputeCost on the reference box).
const warmupSecPerKiB = 2.5e-6

// serversPerNode reflects the paper's staging layout (4 Colza processes
// per node in the Mandelbulb runs).
const serversPerNode = 4

// mergePerByteSec is the measured-order cost of merging one byte of
// framebuffer during compositing (~1 GB/s for the scalar merge loops).
const mergePerByteSec = 1e-9

func ceilLog2(n int) int {
	r := 0
	for v := 1; v < n; v <<= 1 {
		r++
	}
	return r
}

// perMessageOverheadSec is the software cost of one message under the
// given stack profile.
func perMessageOverheadSec(p vstack.Profile) float64 {
	return (time.Duration(p.SendOverhead) + p.RecvOverhead + p.AllocCost).Seconds()
}

// compositeStrategy is the algorithm compositeCostSecs prices: the tree
// reduce icet runs, or binary swap, which ablation A3 compares with it and
// nothing runs.
type compositeStrategy int

const (
	treeStrategy compositeStrategy = iota
	swapStrategy
)

// compositeCostSecs models the image-compositing phase on the virtual
// network.
func compositeCostSecs(p vstack.Profile, imgBytes, n int, strat compositeStrategy) float64 {
	if n <= 1 {
		return 0
	}
	topo := netem.CoriHaswell(serversPerNode)
	link := topo.Inter
	rounds := ceilLog2(n)
	ovh := perMessageOverheadSec(p)
	switch strat {
	case swapStrategy:
		secs := 0.0
		b := imgBytes
		for k := 0; k < rounds; k++ {
			b /= 2
			secs += ovh + link.Cost(b).Seconds() + float64(b)*mergePerByteSec
		}
		// Gather: the root receives n-1 slices of 1/n of the image.
		slice := imgBytes / n
		secs += float64(n-1) * (ovh + link.Cost(slice).Seconds())
		return secs
	default: // tree reduce: the root's critical path merges a full image per level
		per := ovh + link.Cost(imgBytes).Seconds() + float64(imgBytes)*mergePerByteSec
		return float64(rounds) * per
	}
}

// boundsCostSecs models the tiny camera-bounds allreduce.
func boundsCostSecs(p vstack.Profile, n int) float64 {
	if n <= 1 {
		return 0
	}
	topo := netem.CoriHaswell(serversPerNode)
	rounds := 2 * ceilLog2(n) // reduce + bcast
	return float64(rounds) * (perMessageOverheadSec(p) + topo.Inter.Cost(24+64).Seconds())
}

// simPipelineSeconds reconstructs the parallel execution time of one
// pipeline iteration (tree-reduce compositing) from its ranks' work at
// cost c.
func simPipelineSeconds(c workCost, stats []catalyst.Stats, layer vstack.Profile, imgBytes int) float64 {
	var maxFront, maxRender float64
	for _, s := range stats {
		cells, tris := float64(s.LocalCells), float64(s.LocalTriangles)
		maxFront = max(maxFront, warmupSecPerKiB*float64(s.WarmupKiB)+c.extractPerCell*cells+c.extractPerTri*tris)
		maxRender = max(maxRender, c.renderPerCell*cells+c.renderPerTri*tris)
	}
	n := len(stats)
	return maxFront + boundsCostSecs(layer, n) + maxRender + compositeCostSecs(layer, imgBytes, n, treeStrategy)
}

// statsFromResults reads each rank's work out of Colza execute results.
// The warm-up an instance's first execute paid is charged only where the
// figure shows it (Figs. 9–10): the others report steady-state iterations.
func statsFromResults(results []core.ExecResult, chargeWarmup bool) []catalyst.Stats {
	out := make([]catalyst.Stats, len(results))
	for i, r := range results {
		out[i] = catalyst.Stats{LocalCells: int(r.Summary["cells"]), LocalTriangles: int(r.Summary["triangles"])}
		if chargeWarmup {
			out[i].WarmupKiB = int(r.Summary["warmup_kib"])
		}
	}
	return out
}

// sameWork is the cross-check the "MPI" arms run for: the pipeline body
// over a static mini-MPI world saw exactly the per-rank work the Colza arm
// did, so the two arms differ only in their communication layer.
func sameWork(mpi, colza []catalyst.Stats) error {
	if len(mpi) != len(colza) {
		return fmt.Errorf("bench: mpi arm ran %d ranks, colza arm %d", len(mpi), len(colza))
	}
	for r := range mpi {
		if mpi[r].LocalCells != colza[r].LocalCells || mpi[r].LocalTriangles != colza[r].LocalTriangles {
			return fmt.Errorf("bench: rank %d: mpi arm saw %d cells / %d triangles, colza arm %d / %d",
				r, mpi[r].LocalCells, mpi[r].LocalTriangles, colza[r].LocalCells, colza[r].LocalTriangles)
		}
	}
	return nil
}

// frameBytes is the size of an encoded framebuffer (RGBA + depth).
func frameBytes(w, h int) int { return 8 + 8*w*h }
