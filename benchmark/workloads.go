package main

import (
	"fmt"
	"math/rand"

	"colza/benchmark/sink"
	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/minimpi"
	"colza/internal/sim"
	"colza/internal/vtk"
)

// Transports a deployment can run on. Servers are goroutines of the
// benchmark process in every case: "tcp" is host loopback, "sm" is
// na.ListenDual endpoints (shared-memory rings plus a loopback fallback)
// inside one process, "inproc" is the in-memory fabric.
const (
	transportInproc = "inproc"
	transportTCP    = "tcp"
	transportSM     = "sm"
)

// workload is one set of inputs plus the deployment and handle settings it
// is driven with. Names are fixed: later issues cite them.
type workload struct {
	name      string
	why       string
	transport string
	// pipeline is the backend type; config its JSON configuration (nil = none).
	pipeline string
	config   func(tiny bool) any
	batching bool   // SetBatching(core.BatchConfig{}): program defaults
	codec    string // SetCodec name, "" = raw passthrough
	// reference is the summed ExecResult.Summary key ("triangles",
	// "cells") the catalyst oracle compares with a single-rank run; empty
	// on the sink workloads, whose oracle is the block CRCs.
	reference string
	generate  func(seed int64, tiny bool) (*inputs, error)
	// ungated workloads run and are reported like the others but are not
	// listed in BENCHMARK.json, so no bound is held against them.
	ungated bool
}

// block is one staged unit with the client-side half of the sink oracle.
type block struct {
	meta core.BlockMeta
	data []byte
	crc  uint32
}

// slot is what one iteration stages. Iteration it stages slot it mod
// len(slots), so consecutive iterations see consecutive simulation states.
type slot struct {
	blocks []block // already in staging order
	bytes  int64
	crc    uint32  // XOR of the blocks' sink.BlockSum
	ref    float64 // single-rank triangles or cells (catalyst workloads)
}

type inputs struct {
	slots []slot
}

func (in *inputs) bytesPerIter() float64 {
	var sum int64
	for _, s := range in.slots {
		sum += s.bytes
	}
	return float64(sum) / float64(len(in.slots))
}

func (in *inputs) blocksPerIter() float64 {
	n := 0
	for _, s := range in.slots {
		n += len(s.blocks)
	}
	return float64(n) / float64(len(in.slots))
}

// finishSlot shuffles the staging order from (seed, slot index) — the same
// slot is always staged in the same order, which keeps its rendered image
// reproducible across cycles — and fills the oracle totals.
func finishSlot(blocks []block, seed int64, index int) slot {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(index)))
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	s := slot{blocks: blocks}
	for i := range blocks {
		blocks[i].crc = sink.BlockSum(blocks[i].meta, blocks[i].data)
		s.bytes += int64(len(blocks[i].data))
		s.crc ^= blocks[i].crc
	}
	return s
}

// --- Gray-Scott ------------------------------------------------------------

type gsShape struct {
	n      int // global domain is n^3
	spinup int // steps before the first ring state
	ring   int // ring states
	gap    int // steps between ring states
	slabs  int // z-slabs per state
}

func gsShapeFor(tiny bool) gsShape {
	if tiny {
		return gsShape{n: 16, spinup: 20, ring: 3, gap: 5, slabs: 4}
	}
	return gsShape{n: 64, spinup: 200, ring: 8, gap: 10, slabs: 16}
}

// zSlab copies planes [z0, z1] (inclusive: neighbouring slabs share one
// plane so isosurfaces are continuous across them) into a block of its own.
func zSlab(img *vtk.ImageData, z0, z1 int) *vtk.ImageData {
	dims := [3]int{img.Dims[0], img.Dims[1], z1 - z0 + 1}
	origin := img.Origin
	origin[2] += float64(z0) * img.Spacing[2]
	out := vtk.NewImageData(dims, origin, img.Spacing)
	plane := img.Dims[0] * img.Dims[1]
	for _, a := range img.PointData {
		dst := out.AddPointArray(a.Name, a.Components)
		copy(dst.Data, a.Data[z0*plane*a.Components:(z1+1)*plane*a.Components])
	}
	return out
}

// grayScottStates runs the solver single-rank and returns ring states cut
// into overlapping z-slabs.
func grayScottStates(seed int64, sh gsShape) ([][]*vtk.ImageData, error) {
	p := sim.DefaultGrayScott()
	p.Seed = seed
	gs := sim.NewGrayScott(nil, [3]int{sh.n, sh.n, sh.n}, p)
	if err := gs.Step(sh.spinup); err != nil {
		return nil, err
	}
	states := make([][]*vtk.ImageData, sh.ring)
	per := sh.n / sh.slabs
	for r := range states {
		if r > 0 {
			if err := gs.Step(sh.gap); err != nil {
				return nil, err
			}
		}
		full := gs.Block()
		for s := 0; s < sh.slabs; s++ {
			z1 := (s + 1) * per
			if s == sh.slabs-1 {
				z1 = sh.n - 1
			}
			states[r] = append(states[r], zSlab(full, s*per, z1))
		}
	}
	return states, nil
}

func gsIsoConfig(sh gsShape) catalyst.IsoConfig {
	return catalyst.IsoConfig{
		Field: "V", IsoValues: []float64{0.1, 0.2, 0.3}, Width: 256, Height: 256,
		ScalarRange: [2]float64{0, 0.5}, ColorMap: "coolwarm", Strategy: "tree",
		Clip:      &catalyst.ClipSpec{Normal: [3]float64{1, 0, 0}, Offset: float64(sh.n) / 2},
		EmitImage: true, WarmupKiB: 256,
	}
}

// generateGrayScott builds the ring shared by gs_iso_inproc and
// gs_stage_tcp_delta. withRef adds the single-rank triangle count.
func generateGrayScott(withRef bool) func(int64, bool) (*inputs, error) {
	return func(seed int64, tiny bool) (*inputs, error) {
		sh := gsShapeFor(tiny)
		states, err := grayScottStates(seed, sh)
		if err != nil {
			return nil, err
		}
		in := &inputs{}
		for r, slabs := range states {
			blocks := make([]block, len(slabs))
			for b, img := range slabs {
				blocks[b] = block{
					meta: core.BlockMeta{Field: "V", BlockID: b, Type: "imagedata", Dims: img.Dims},
					data: img.Encode(),
				}
			}
			s := finishSlot(blocks, seed, r)
			if withRef {
				st, _, err := catalyst.ExecuteIso(soloController(), slabs, gsIsoConfig(sh))
				if err != nil {
					return nil, fmt.Errorf("single-rank iso reference: %w", err)
				}
				s.ref = float64(st.LocalTriangles)
			}
			in.slots = append(in.slots, s)
		}
		return in, nil
	}
}

// soloController is the one-rank controller the oracle references run on.
func soloController() *vtk.Controller {
	return vtk.NewController("mpi", minimpi.World(1)[0])
}

// --- Deep Water Impact proxy -----------------------------------------------

func dwiConfigFor(tiny bool) (sim.DWIConfig, int) {
	if tiny {
		return sim.DWIConfig{Blocks: 4, Iterations: 30, BaseRes: 12, GrowthRes: 1}, 14
	}
	return sim.DWIConfig{Blocks: 4, Iterations: 30, BaseRes: 96, GrowthRes: 2}, 14
}

func dwiVolumeConfig() catalyst.VolumeConfig {
	return catalyst.VolumeConfig{
		Field: "velocity", Width: 256, Height: 256, ScalarRange: [2]float64{0, 2},
		PointSize: 3, EmitImage: true, WarmupKiB: 256,
	}
}

func dwiGrids(tiny bool) []*vtk.UnstructuredGrid {
	cfg, step := dwiConfigFor(tiny)
	grids := make([]*vtk.UnstructuredGrid, cfg.Blocks)
	for b := range grids {
		grids[b] = sim.DWIIterationBlock(cfg, step, b)
	}
	return grids
}

// generateDWI stages the same growth step every iteration, so the payload
// is constant; the seed only moves the staging order.
func generateDWI(seed int64, tiny bool) (*inputs, error) {
	grids := dwiGrids(tiny)
	blocks := make([]block, len(grids))
	for b, g := range grids {
		blocks[b] = block{
			meta: core.BlockMeta{Field: "velocity", BlockID: b, Type: "ugrid"},
			data: g.Encode(),
		}
	}
	s := finishSlot(blocks, seed, 0)
	st, _, err := catalyst.ExecuteVolume(soloController(), grids, dwiVolumeConfig())
	if err != nil {
		return nil, fmt.Errorf("single-rank volume reference: %w", err)
	}
	s.ref = float64(st.LocalCells)
	return &inputs{slots: []slot{s}}, nil
}

// --- Mandelbulb ------------------------------------------------------------

// generateMandelbulb makes `distinct` blocks and stages each under `repeat`
// block ids: the stage path moves 32 MiB an iteration without the
// generator dominating the run. The seed is the fractal's animation phase.
func generateMandelbulb(seed int64, tiny bool) (*inputs, error) {
	dims, distinct, repeat := [3]int{32, 32, 16}, 128, 4
	if tiny {
		dims, distinct, repeat = [3]int{8, 8, 4}, 8, 2
	}
	cfg := sim.DefaultMandelbulb(dims, distinct)
	var blocks []block
	for b := 0; b < distinct; b++ {
		data := sim.MandelbulbBlock(cfg, b, uint64(seed)).Encode()
		for k := 0; k < repeat; k++ {
			meta := sim.MandelbulbMeta(cfg, k*distinct+b)
			blocks = append(blocks, block{meta: meta, data: data})
		}
	}
	return &inputs{slots: []slot{finishSlot(blocks, seed, 0)}}, nil
}

// workloads lists the five workloads in their reporting order. BENCHMARK.json
// lists the ones that are not ungated, in the same order.
func workloads() []workload {
	return []workload{
		{
			name:      "gs_iso_inproc",
			why:       "Gray-Scott 64^3 through catalyst/iso on inproc: execute is ~98% of the iteration, so render/filter changes show fully and stage-path changes not at all",
			transport: transportInproc, pipeline: catalyst.IsoPipelineType,
			config:    func(tiny bool) any { return gsIsoConfig(gsShapeFor(tiny)) },
			reference: "triangles", generate: generateGrayScott(true),
		},
		{
			name:      "dwi_volume_tcp",
			why:       "DWI proxy through catalyst/volume with RPC and MoNA on loopback TCP: the other execute path, staged as few large blocks where an extra copy costs bandwidth",
			transport: transportTCP, pipeline: catalyst.VolumePipelineType,
			config:    func(bool) any { return dwiVolumeConfig() },
			reference: "cells", generate: generateDWI,
			// Memory-bound (5 MB staged, merged and splatted per iteration): a
			// neighbour on the shared box's memory system slows it by 45 %, twice
			// what the other workloads see, for longer than a run lasts.
			ungated: true,
		},
		{
			name:      "mb_stage_tcp_perblock",
			why:       "512 Mandelbulb blocks of 64 KiB per iteration into the sink over loopback TCP, one stage RPC and one pull per block: bound by RPC round trips",
			transport: transportTCP, pipeline: sink.TypeName, generate: generateMandelbulb,
		},
		{
			name:      "mb_stage_sm_batched",
			why:       "the same blocks through the v3 batcher and shared-arena pulls: bound by copies per byte, and the only workload where 2PC activate/deactivate shows",
			transport: transportSM, pipeline: sink.TypeName, batching: true, generate: generateMandelbulb,
		},
		{
			name:      "gs_stage_tcp_delta",
			why:       "the Gray-Scott ring into the sink with the delta codec: encode and decode are ~90% of the iteration, so codec changes show here and nowhere else",
			transport: transportTCP, pipeline: sink.TypeName, codec: "delta", generate: generateGrayScott(false),
		},
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
