package catalyst

import (
	"bytes"
	"encoding/json"
	"fmt"
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
		return &IsoPipeline{cfg: c}, nil
	})
	core.RegisterPipelineType(VolumePipelineType, func(cfg json.RawMessage) (core.Backend, error) {
		var c VolumeConfig
		if err := decodeConfig("volume", cfg, &c); err != nil {
			return nil, err
		}
		c.withDefaults()
		return &VolumePipeline{cfg: c}, nil
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

// IsoPipeline is the Colza backend running the iso pipeline body (the one
// behind ExecuteIso). One instance runs on every staging server; instances
// of the same iteration communicate through the controller built from the
// activation context. The instance owns the workspace its executes fill —
// surface mesh and local framebuffer — so a steady run of iterations
// allocates neither; one execute runs on an instance at a time.
type IsoPipeline struct {
	cfg IsoConfig

	mu        sync.Mutex
	ctx       core.IterationContext
	active    bool
	warmed    bool
	executing bool // ws is in use
	staged    map[uint64][]*vtk.ImageData

	ws isoWorkspace // touched only by the execute that set executing
}

var _ core.Backend = (*IsoPipeline)(nil)

// Activate pins the iteration context.
func (p *IsoPipeline) Activate(ctx core.IterationContext) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		return fmt.Errorf("catalyst: iso pipeline already active")
	}
	p.ctx = ctx
	p.active = true
	if p.staged == nil {
		p.staged = make(map[uint64][]*vtk.ImageData)
	}
	return nil
}

// Stage decodes and retains one ImageData block.
func (p *IsoPipeline) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	if meta.Type != "" && meta.Type != "imagedata" {
		return fmt.Errorf("catalyst: iso pipeline cannot stage %q blocks", meta.Type)
	}
	img, err := vtk.DecodeImageData(data)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active || p.ctx.Iteration != it {
		return fmt.Errorf("catalyst: stage outside active iteration %d", it)
	}
	p.staged[it] = append(p.staged[it], img)
	return nil
}

// Execute runs the pipeline over the staged blocks.
func (p *IsoPipeline) Execute(it uint64) (core.ExecResult, error) {
	p.mu.Lock()
	if !p.active || p.ctx.Iteration != it {
		p.mu.Unlock()
		return core.ExecResult{}, fmt.Errorf("catalyst: execute outside active iteration %d", it)
	}
	if p.executing {
		p.mu.Unlock()
		return core.ExecResult{}, fmt.Errorf("catalyst: iso pipeline is already executing iteration %d", it)
	}
	p.executing = true
	ctx := p.ctx
	blocks := p.staged[it]
	cfg := p.cfg
	warmed := p.warmed
	p.warmed = true
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.executing = false
		p.mu.Unlock()
	}()

	var warm Stats
	if !warmed {
		// First execution on this instance pays the VTK/Python startup
		// analog — the join-iteration spike of Figs. 9-10.
		warm = warmup(cfg.WarmupKiB, cfg.Width, cfg.Height)
	}
	ctrl := vtk.NewController("mona", ctx.Comm)
	// img may be the workspace's framebuffer: execResult encodes it and it
	// is not kept past this call.
	st, img, err := p.ws.execute(ctrl, blocks, cfg)
	if err != nil {
		return core.ExecResult{}, err
	}
	return execResult(st, warm, len(blocks), ctx, img, cfg.EmitImage)
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

// Deactivate releases staged data and unpins the iteration.
func (p *IsoPipeline) Deactivate(it uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.staged, it)
	p.active = false
	return nil
}

// Destroy drops all state, the workspace included (an execute still
// running keeps it until it returns).
func (p *IsoPipeline) Destroy() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.staged = nil
	p.active = false
	if !p.executing {
		p.ws = isoWorkspace{}
	}
	return nil
}

// VolumePipeline is the Colza backend wrapping ExecuteVolume (the Deep
// Water Impact rendering pipeline: block merge + volume render + ordered
// composite).
type VolumePipeline struct {
	cfg VolumeConfig

	mu     sync.Mutex
	ctx    core.IterationContext
	active bool
	warmed bool
	staged map[uint64][]*vtk.UnstructuredGrid
}

var _ core.Backend = (*VolumePipeline)(nil)

// Activate pins the iteration context.
func (p *VolumePipeline) Activate(ctx core.IterationContext) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.active {
		return fmt.Errorf("catalyst: volume pipeline already active")
	}
	p.ctx = ctx
	p.active = true
	if p.staged == nil {
		p.staged = make(map[uint64][]*vtk.UnstructuredGrid)
	}
	return nil
}

// Stage decodes and retains one unstructured-grid block (a "VTU file").
func (p *VolumePipeline) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	if meta.Type != "" && meta.Type != "ugrid" {
		return fmt.Errorf("catalyst: volume pipeline cannot stage %q blocks", meta.Type)
	}
	g, err := vtk.DecodeUnstructuredGrid(data)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.active || p.ctx.Iteration != it {
		return fmt.Errorf("catalyst: stage outside active iteration %d", it)
	}
	p.staged[it] = append(p.staged[it], g)
	return nil
}

// Execute runs the volume pipeline over the staged blocks.
func (p *VolumePipeline) Execute(it uint64) (core.ExecResult, error) {
	p.mu.Lock()
	if !p.active || p.ctx.Iteration != it {
		p.mu.Unlock()
		return core.ExecResult{}, fmt.Errorf("catalyst: execute outside active iteration %d", it)
	}
	ctx := p.ctx
	grids := p.staged[it]
	cfg := p.cfg
	warmed := p.warmed
	p.warmed = true
	p.mu.Unlock()

	var warm Stats
	if !warmed {
		warm = warmup(cfg.WarmupKiB, cfg.Width, cfg.Height)
	}
	ctrl := vtk.NewController("mona", ctx.Comm)
	st, img, err := ExecuteVolume(ctrl, grids, cfg)
	if err != nil {
		return core.ExecResult{}, err
	}
	return execResult(st, warm, len(grids), ctx, img, cfg.EmitImage)
}

// Deactivate releases staged data.
func (p *VolumePipeline) Deactivate(it uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.staged, it)
	p.active = false
	return nil
}

// Destroy drops all state.
func (p *VolumePipeline) Destroy() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.staged = nil
	p.active = false
	return nil
}
