package catalyst

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"

	"colza/internal/core"
	"colza/internal/render"
	"colza/internal/vtk"
)

// Pipeline type names registered with the Colza pipeline registry.
const (
	IsoPipelineType    = "catalyst/iso"
	VolumePipelineType = "catalyst/volume"
)

// Register installs the catalyst pipeline factories in the Colza registry
// (the analog of placing the pipeline shared libraries on the library
// path). Idempotent.
func Register() {
	core.RegisterPipelineType(IsoPipelineType, func(cfg json.RawMessage) (core.Backend, error) {
		var c IsoConfig
		if err := decodeConfig("iso", cfg, &c); err != nil {
			return nil, err
		}
		if c.Strategy != "" && c.Strategy != "tree" {
			return nil, fmt.Errorf("catalyst: iso config: strategy %q: tree compositing is the only one", c.Strategy)
		}
		c.withDefaults()
		return &IsoPipeline{staging: staging[*vtk.ImageData]{kind: "iso", blockType: "imagedata", decode: vtk.DecodeImageDataInto}, cfg: c}, nil
	})
	core.RegisterPipelineType(VolumePipelineType, func(cfg json.RawMessage) (core.Backend, error) {
		var c VolumeConfig
		if err := decodeConfig("volume", cfg, &c); err != nil {
			return nil, err
		}
		c.withDefaults()
		return &VolumePipeline{staging: staging[*vtk.UnstructuredGrid]{kind: "volume", blockType: "ugrid", decode: vtk.DecodeUnstructuredGridInto}, cfg: c}, nil
	})
	registerStats()
}

// decodeConfig decodes a pipeline's JSON config into c, refusing keys c
// does not have, so a misspelt option fails the create instead of
// silently rendering with its default. An empty config leaves c zero.
func decodeConfig(kind string, cfg json.RawMessage, c any) error {
	if len(cfg) == 0 {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(cfg))
	dec.DisallowUnknownFields()
	if err := dec.Decode(c); err != nil {
		return fmt.Errorf("catalyst: %s config: %w", kind, err)
	}
	return nil
}

// staging is the one store of the catalyst backends: the pinned iteration
// context and the active iteration's blocks, decoded, once per block id.
// Staging is at-least-once (a stage RPC that timed out is retried), so a
// second copy of a staged id whose bytes match the first is dropped, and a
// different block under a staged id is refused. The match is a CRC-32C of
// the staged bytes, a second read of the loaned data that decides only
// whether a retry is a duplicate.
//
// Block storage belongs to the store between iterations: a release that no
// execute holds keeps the released blocks as spares, and the next
// iteration's stages decode into them (decode overwrites every field of
// the spare it is given), so a steady run of iterations decodes without
// allocating. No stage rewrites a block an execute is reading: an execute
// claims the store (begin, end), and a release during it — a Deactivate or
// an abort — leaves that iteration's blocks to the collector.
type staging[B any] struct {
	kind, blockType string // the pipeline's name in errors; the BlockMeta.Type it stages
	decode          func(spare B, data []byte) (B, error)

	mu        sync.Mutex
	ctx       core.IterationContext
	active    bool
	warmed    bool
	executing bool // an execute holds blocks (and the pipeline's workspace)
	blocks    []B
	spares    []B            // the blocks of the last release no execute held
	sums      map[int]uint32 // block id -> CRC-32C of its bytes; cleared, not reallocated, per iteration
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Activate pins the iteration context.
func (s *staging[B]) Activate(ctx core.IterationContext) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active {
		return fmt.Errorf("catalyst: %s pipeline already active", s.kind)
	}
	s.ctx = ctx
	s.active = true
	if s.sums == nil {
		s.sums = make(map[int]uint32)
	}
	return nil
}

// Stage decodes and retains one block, once per block id. It decodes
// outside mu, into a spare it takes under mu and gives back if the block
// is not kept.
func (s *staging[B]) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	if meta.Type != "" && meta.Type != s.blockType {
		return fmt.Errorf("catalyst: %s pipeline cannot stage %q blocks", s.kind, meta.Type)
	}
	var spare B
	s.mu.Lock()
	n := len(s.spares)
	if n > 0 {
		spare = s.spares[n-1]
		s.spares = s.spares[:n-1]
	}
	s.mu.Unlock()
	b, err := s.decode(spare, data)
	sum := crc32.Checksum(data, castagnoli)
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := false
	defer func() {
		if !keep && n > 0 {
			s.spares = append(s.spares, spare)
		}
	}()
	if err != nil {
		return err
	}
	if !s.active || s.ctx.Iteration != it {
		return fmt.Errorf("catalyst: stage outside active iteration %d", it)
	}
	if prev, dup := s.sums[meta.BlockID]; dup {
		if prev != sum {
			return fmt.Errorf("catalyst: %s pipeline: block %d of iteration %d is already staged with other bytes", s.kind, meta.BlockID, it)
		}
		return nil // a retried stage
	}
	s.sums[meta.BlockID] = sum
	s.blocks = append(s.blocks, b)
	keep = true
	return nil
}

// begin claims active iteration it for an execute, which holds the
// returned blocks until it calls end: its context, its blocks, and whether
// this is the instance's first execute. One execute holds the store at a
// time. The caller holds mu.
func (s *staging[B]) begin(it uint64) (core.IterationContext, []B, bool, error) {
	if !s.active || s.ctx.Iteration != it {
		return core.IterationContext{}, nil, false, fmt.Errorf("catalyst: execute outside active iteration %d", it)
	}
	if s.executing {
		return core.IterationContext{}, nil, false, fmt.Errorf("catalyst: %s pipeline is already executing iteration %d", s.kind, it)
	}
	s.executing = true
	first := !s.warmed
	s.warmed = true
	return s.ctx, s.blocks, first, nil
}

// end ends the execute begin claimed.
func (s *staging[B]) end() {
	s.mu.Lock()
	s.executing = false
	s.mu.Unlock()
}

// Deactivate releases staged data and unpins the iteration.
func (s *staging[B]) Deactivate(uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release()
	return nil
}

// release ends the iteration. Its blocks, if any, become the spares,
// unless an execute holds them: then they are left to it and the
// collector, and the next iteration appends to a new slice. The caller
// holds mu.
func (s *staging[B]) release() {
	switch {
	case s.executing:
		s.blocks = nil
	case len(s.blocks) > 0:
		clear(s.spares) // what the released iteration did not take
		s.spares, s.blocks = s.blocks, s.spares[:0]
	}
	clear(s.sums)
	s.active = false
}

// Destroy drops all state, spares included.
func (s *staging[B]) Destroy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.release()
	s.spares = nil
	return nil
}

// IsoPipeline is the Colza backend running the iso pipeline body (the one
// behind ExecuteIso). One instance runs on every staging server; instances
// of the same iteration communicate through the controller built from the
// activation context. The instance owns the workspace its executes fill —
// surface mesh and local framebuffer — so a steady run of iterations
// allocates neither; the store's execute claim keeps it to one execute at a
// time.
type IsoPipeline struct {
	staging[*vtk.ImageData]
	cfg IsoConfig
	ws  isoWorkspace // touched only by the execute that holds the claim
}

var _ core.Backend = (*IsoPipeline)(nil)

// Execute runs the pipeline over the staged blocks.
func (p *IsoPipeline) Execute(it uint64) (core.ExecResult, error) {
	p.mu.Lock()
	ctx, blocks, first, err := p.begin(it)
	p.mu.Unlock()
	if err != nil {
		return core.ExecResult{}, err
	}
	defer p.end()

	var warm Stats
	if first {
		// First execution on this instance pays the VTK/Python startup
		// analog — the join-iteration spike of Figs. 9-10.
		warm = warmup(p.cfg.WarmupKiB, p.cfg.Width, p.cfg.Height)
	}
	ctrl := vtk.NewController("mona", ctx.Comm)
	// img is the workspace's framebuffer: execResult encodes it and it is
	// not kept past this call.
	st, img, err := p.ws.execute(ctrl, blocks, p.cfg)
	if err != nil {
		return core.ExecResult{}, err
	}
	return execResult(st, warm, len(blocks), ctx, img, p.cfg.EmitImage)
}

// execResult is what both backends return for one execute: its work counts
// and phase times with the warm-up charged to it (warm is zero after an
// instance's first execute), and on rank 0 the PNG when configured.
func execResult(st, warm Stats, blocks int, ctx core.IterationContext, img *render.Image, emit bool) (core.ExecResult, error) {
	res := core.ExecResult{Summary: map[string]float64{
		"cells":         float64(st.LocalCells),
		"triangles":     float64(st.LocalTriangles),
		"warmup_kib":    float64(warm.WarmupKiB),
		"blocks":        float64(blocks),
		"extract_sec":   st.ExtractSeconds,
		"render_sec":    st.RenderSeconds,
		"warmup_sec":    warm.WarmupSeconds,
		"composite_sec": st.CompositeSecs,
		"execute_sec":   st.TotalSeconds + warm.WarmupSeconds,
		"rank":          float64(ctx.Rank),
		"size":          float64(ctx.Size),
	}}
	if ctx.Rank == 0 && img != nil && emit {
		png, err := img.PNG()
		if err != nil {
			return core.ExecResult{}, err
		}
		res.Image = png
	}
	return res, nil
}

// Destroy drops all state, the workspace included (an execute still
// running keeps it until it returns).
func (p *IsoPipeline) Destroy() error {
	p.staging.Destroy()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.executing {
		p.ws = isoWorkspace{}
	}
	return nil
}

// VolumePipeline is the Colza backend wrapping ExecuteVolume (the Deep
// Water Impact rendering pipeline: splat into sums, sum over ranks,
// resolve). The instance keeps its accumulator across executes.
type VolumePipeline struct {
	staging[*vtk.UnstructuredGrid]
	cfg VolumeConfig
	ws  volumeWorkspace // touched only by the execute that holds the claim
}

var _ core.Backend = (*VolumePipeline)(nil)

// Execute runs the volume pipeline over the staged blocks.
func (p *VolumePipeline) Execute(it uint64) (core.ExecResult, error) {
	p.mu.Lock()
	ctx, grids, first, err := p.begin(it)
	p.mu.Unlock()
	if err != nil {
		return core.ExecResult{}, err
	}
	defer p.end()
	var warm Stats
	if first {
		warm = warmup(p.cfg.WarmupKiB, p.cfg.Width, p.cfg.Height)
	}
	st, img, err := p.ws.execute(vtk.NewController("mona", ctx.Comm), grids, p.cfg)
	if err != nil {
		return core.ExecResult{}, err
	}
	return execResult(st, warm, len(grids), ctx, img, p.cfg.EmitImage)
}

// Destroy drops all state, the accumulator included (an execute still
// running keeps it until it returns).
func (p *VolumePipeline) Destroy() error {
	p.staging.Destroy()
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.executing {
		p.ws = volumeWorkspace{}
	}
	return nil
}
