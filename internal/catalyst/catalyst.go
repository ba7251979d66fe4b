// Package catalyst implements concrete Colza pipelines in the role of
// ParaView Catalyst: ready-made in situ visualization pipelines assembled
// from the VTK-like filters (internal/vtk), the software renderer
// (internal/render), and the IceT-like compositor (internal/icet).
//
// Two pipelines are provided, matching the paper's evaluation:
//
//   - "catalyst/iso": multi-level isosurface extraction with the optional
//     plane clip applied to each triangle as it is emitted, rasterization,
//     depth compositing — one pass from staged block to local framebuffer
//     over a mesh and a framebuffer the pipeline instance keeps (DESIGN.md
//     §13). Used by the Gray-Scott and Mandelbulb experiments (Figs. 3, 5,
//     6, 8, 9).
//   - "catalyst/volume": volume rendering of unstructured grids as integer
//     sums per pixel, composited by summing them and resolved once at the
//     root. Used by the Deep Water Impact experiments (Figs. 1b, 7, 10).
//
// Pipelines never name a communication layer: they receive a communicator
// at activation (from Colza, a MoNA communicator over the 2PC-pinned
// view) and wrap it in a vtk.Controller, exactly the injection the paper
// performs with vtkMonaController. The same execution functions run
// standalone over a static mini-MPI world for the "MPI" comparison arms.
package catalyst

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"colza/internal/bufpool"
	"colza/internal/collectives"
	"colza/internal/comm"
	"colza/internal/icet"
	"colza/internal/render"
	"colza/internal/vtk"
)

// The collective tags of global-bounds agreement, the volume composite and
// the stats reduction (an all-reduce also takes its tag+1).
const boundsTag, volumeTag, statsTag = 6100, 6200, 6300

// globalBounds allreduces per-rank bounds so every rank frames the same
// camera even though it holds different blocks. Empty ranks contribute
// +/-Inf and do not shrink the result.
func globalBounds(c comm.Communicator, lo, hi [3]float32) (render.Vec3, render.Vec3, error) {
	if c != nil && c.Size() > 1 {
		buf := make([]byte, 24)
		for k := 0; k < 3; k++ {
			binary.LittleEndian.PutUint32(buf[4*k:], math.Float32bits(lo[k]))
			binary.LittleEndian.PutUint32(buf[12+4*k:], math.Float32bits(-hi[k]))
		}
		out, err := c.AllReduce(boundsTag, buf, collectives.MinFloat32)
		if err != nil {
			return render.Vec3{}, render.Vec3{}, err
		}
		for k := 0; k < 3; k++ {
			lo[k] = math.Float32frombits(binary.LittleEndian.Uint32(out[4*k:]))
			hi[k] = -math.Float32frombits(binary.LittleEndian.Uint32(out[12+4*k:]))
		}
		bufpool.Put(out)
	}
	glo, ghi := render.BoxOf(lo, hi)
	return glo, ghi, nil
}

// pickColorMap resolves a colormap name.
func pickColorMap(name string) render.ColorMap {
	switch name {
	case "viridis":
		return render.Viridis
	default:
		return render.CoolWarm
	}
}

// Stats is what one Execute did on one rank.
//
// The counts are its work: the experiment harness (internal/bench) costs
// each rank's compute as these counts times a constant table and
// reconstructs parallel time from them (DESIGN.md §2, substitution 7), so
// its figures do not depend on the host's cores or load.
//
// The seconds are wall-clock phase times, reported in ExecResult.Summary
// for per-layer profiling. Ranks sharing a core interleave their compute,
// so a phase time includes whatever ran beside it.
type Stats struct {
	LocalCells     int     // voxel cells scanned, once per isovalue (iso); cells splatted (volume)
	LocalTriangles int     // triangles extracted (iso)
	WarmupKiB      int     // warm-up table built by this call (an instance's first execute)
	ExtractSeconds float64 // contour/clip (iso); 0 (volume)
	RenderSeconds  float64 // rasterize/splat
	WarmupSeconds  float64 // first-activation init, when charged to this call
	CompositeSecs  float64 // compositing, including peer waits
	TotalSeconds   float64 // the whole execute
}

// IsoConfig configures the isosurface pipeline (JSON, passed through the
// admin create_pipeline call — the analog of the Catalyst Python script
// exported from ParaView).
type IsoConfig struct {
	Field       string     `json:"field"`
	IsoValues   []float64  `json:"isovalues"`
	Width       int        `json:"width"`
	Height      int        `json:"height"`
	ScalarRange [2]float64 `json:"scalar_range"`
	Clip        *ClipSpec  `json:"clip,omitempty"`
	Strategy    string     `json:"strategy,omitempty"` // "" or "tree", the one compositor
	ColorMap    string     `json:"colormap,omitempty"`
	EmitImage   bool       `json:"emit_image,omitempty"` // return PNG from rank 0
	// WarmupKiB sizes the first-activation warm-up work (framebuffer and
	// table allocation standing in for VTK loading shared libraries and
	// starting a Python interpreter — the first-iteration spike the paper
	// discards in Figs. 5-7 and observes at every scale-up in Figs. 9-10).
	WarmupKiB int `json:"warmup_kib,omitempty"`
}

// ClipSpec is a clipping plane in config form.
type ClipSpec struct {
	Normal [3]float64 `json:"normal"`
	Offset float64    `json:"offset"`
}

func (c *IsoConfig) withDefaults() {
	if c.Field == "" {
		c.Field = "value"
	}
	if len(c.IsoValues) == 0 {
		c.IsoValues = []float64{0.5}
	}
	if c.Width <= 0 {
		c.Width = 512
	}
	if c.Height <= 0 {
		c.Height = 512
	}
	if c.ScalarRange[0] == c.ScalarRange[1] {
		c.ScalarRange = [2]float64{0, 1}
	}
}

// ExecuteIso runs the isosurface pipeline body over the blocks staged on
// this rank: contour each block (possibly at several iso levels) with the
// clip applied as triangles are emitted, rasterize locally, composite
// across the controller. The composited image is returned on rank 0. It
// runs on a workspace of its own, so the caller owns the returned image;
// IsoPipeline runs the same body on the workspace it keeps.
func ExecuteIso(ctrl *vtk.Controller, blocks []*vtk.ImageData, cfg IsoConfig) (Stats, *render.Image, error) {
	var ws isoWorkspace
	return ws.execute(ctrl, blocks, cfg)
}

// isoWorkspace is the storage one iso execute fills: the extracted surface
// (with its crossing table), the rasterizer's scratch and the local
// framebuffer. An owner that keeps it between executes (one
// IsoPipeline instance, never two goroutines at once) pays for that storage
// once: execute resets and refills it, and allocates only when an iteration
// extracts more triangles than any before it or the frame size changes.
// Nothing computed in one execute is reused by the next.
//
// Ownership of the framebuffer: icet.Composite composites into the local
// framebuffer at the root, so the image execute returns is ws.frame. It is
// valid until the next execute on the same workspace and must not be
// retained past it.
type isoWorkspace struct {
	surface vtk.TriangleMesh
	raster  render.Rasterizer
	frame   *render.Image
}

func (ws *isoWorkspace) execute(ctrl *vtk.Controller, blocks []*vtk.ImageData, cfg IsoConfig) (Stats, *render.Image, error) {
	cfg.withDefaults()
	var st Stats
	start := time.Now()

	// Surface extraction: the computation-heavy, embarrassingly parallel
	// part.
	t0 := time.Now()
	lo, hi, err := ws.extract(blocks, cfg)
	if err != nil {
		return st, nil, err
	}
	st.ExtractSeconds = time.Since(t0).Seconds()
	st.LocalTriangles = ws.surface.NumTriangles()
	for _, blk := range blocks {
		st.LocalCells += blk.NumCells() * len(cfg.IsoValues)
	}

	// Agree on a global camera.
	glo, ghi, err := globalBounds(ctrl.Communicator(), lo, hi)
	if err != nil {
		return st, nil, err
	}
	if math.IsInf(glo[0], 1) { // nobody has geometry
		glo, ghi = render.Vec3{}, render.Vec3{1, 1, 1}
	}
	cam := render.DefaultCamera(glo, ghi)

	// Local rendering.
	t1 := time.Now()
	im := ws.frame
	if im == nil || im.W != cfg.Width || im.H != cfg.Height {
		im = render.NewImage(cfg.Width, cfg.Height)
		ws.frame = im
	} else {
		im.Clear()
	}
	ws.raster.RasterizeMesh(im, cam, &ws.surface, pickColorMap(cfg.ColorMap), cfg.ScalarRange)
	st.RenderSeconds = time.Since(t1).Seconds()

	// Parallel compositing — the only communication-intensive step.
	compStart := time.Now()
	out, err := icet.Composite(im, ctrl.Communicator(), icet.TreeReduce, icet.Depth, 0)
	if err != nil {
		return st, nil, err
	}
	st.CompositeSecs = time.Since(compStart).Seconds()
	st.TotalSeconds = time.Since(start).Seconds()
	return st, out, nil
}

// extract refills the surface from blocks, clipped as triangles are
// emitted, and returns its bounding box (+Inf/−Inf when empty), folding in
// each block's new vertices right after its extraction, while in cache —
// each once, however many triangles share it. Vertices are stored in the
// order the triangles first use them, so the box is, bit for bit (which
// zero included), the one of the triangles drawn.
func (ws *isoWorkspace) extract(blocks []*vtk.ImageData, cfg IsoConfig) (lo, hi [3]float32, err error) {
	var clip *vtk.Plane
	if cfg.Clip != nil {
		clip = &vtk.Plane{
			Normal: [3]float32{float32(cfg.Clip.Normal[0]), float32(cfg.Clip.Normal[1]), float32(cfg.Clip.Normal[2])},
			Offset: float32(cfg.Clip.Offset),
		}
	}
	ws.surface.Reset()
	lo, hi = vtk.EmptyBounds()
	for _, blk := range blocks {
		n := len(ws.surface.Positions) // the block's vertices start here
		if err := vtk.ExtractIsosurfaces(&ws.surface, blk, cfg.Field, cfg.IsoValues, clip); err != nil {
			return lo, hi, err
		}
		lo, hi = vtk.FoldBounds(lo, hi, ws.surface.Positions[n:])
	}
	return lo, hi, nil
}

// VolumeConfig configures the unstructured-grid volume pipeline.
type VolumeConfig struct {
	Field       string     `json:"field"`
	Width       int        `json:"width"`
	Height      int        `json:"height"`
	ScalarRange [2]float64 `json:"scalar_range"`
	PointSize   float64    `json:"point_size,omitempty"`
	ColorMap    string     `json:"colormap,omitempty"`
	EmitImage   bool       `json:"emit_image,omitempty"`
	WarmupKiB   int        `json:"warmup_kib,omitempty"`
}

func (c *VolumeConfig) withDefaults() {
	if c.Field == "" {
		c.Field = "velocity"
	}
	if c.Width <= 0 {
		c.Width = 512
	}
	if c.Height <= 0 {
		c.Height = 512
	}
	if c.ScalarRange[0] == c.ScalarRange[1] {
		c.ScalarRange = [2]float64{0, 1.5}
	}
}

// ExecuteVolume runs the DWI pipeline body: splat the staged grids into
// integer sums (render.AccumulateVolume), add the ranks' sums at rank 0 and
// resolve them there, so no rank count or placement changes the picture.
// It runs on a workspace of its own; VolumePipeline runs the same body on
// the workspace it keeps.
func ExecuteVolume(ctrl *vtk.Controller, grids []*vtk.UnstructuredGrid, cfg VolumeConfig) (Stats, *render.Image, error) {
	var ws volumeWorkspace
	return ws.execute(ctrl, grids, cfg)
}

// volumeWorkspace is the accumulator one volume execute splats into, four
// int64 sums per pixel (32 B). An owner that keeps it between executes
// (one VolumePipeline instance, one execute at a time) clears it instead
// of allocating it again, unless the frame size changes.
type volumeWorkspace struct {
	acc []byte
}

func (ws *volumeWorkspace) execute(ctrl *vtk.Controller, grids []*vtk.UnstructuredGrid, cfg VolumeConfig) (Stats, *render.Image, error) {
	cfg.withDefaults()
	var st Stats
	start := time.Now()
	lo, hi := vtk.EmptyBounds()
	for _, g := range grids {
		lo, hi = vtk.FoldBounds(lo, hi, g.Points)
		st.LocalCells += g.NumCells()
	}
	c := ctrl.Communicator()
	glo, ghi, err := globalBounds(c, lo, hi)
	if err != nil {
		return st, nil, err
	}
	if math.IsInf(glo[0], 1) {
		glo, ghi = render.Vec3{}, render.Vec3{1, 1, 1}
	}
	cam := render.DefaultCamera(glo, ghi)

	t1 := time.Now()
	if n := 32 * cfg.Width * cfg.Height; len(ws.acc) != n {
		ws.acc = make([]byte, n)
	} else {
		clear(ws.acc)
	}
	opt := render.VolumeOptions{Field: cfg.Field, ScalarRange: cfg.ScalarRange, ColorMap: pickColorMap(cfg.ColorMap), PointSize: cfg.PointSize}
	for _, g := range grids {
		if err := render.AccumulateVolume(ws.acc, cfg.Width, cfg.Height, cam, g, opt); err != nil {
			return st, nil, err
		}
	}
	st.RenderSeconds = time.Since(t1).Seconds()

	compStart := time.Now()
	sum, err := c.Reduce(0, volumeTag, ws.acc, sumVolume)
	if err != nil {
		return st, nil, err
	}
	var im *render.Image
	if c.Rank() == 0 {
		// Colour only: nothing reads a resolved volume's depth.
		im = &render.Image{W: cfg.Width, H: cfg.Height, RGBA: make([]uint8, 4*cfg.Width*cfg.Height)}
		err := render.ResolveVolume(im, sum)
		if c.Size() > 1 {
			bufpool.Put(sum) // the reduce's pooled copy; on one rank sum is ws.acc
		}
		if err != nil {
			return st, nil, fmt.Errorf("catalyst: volume composite: a contribution is of another size: %w", err)
		}
	}
	st.CompositeSecs = time.Since(compStart).Seconds()
	st.TotalSeconds = time.Since(start).Seconds()
	return st, im, nil
}

// sumVolume is the volume composite's op, collectives.SumInt64 of inputs of
// one length: an image of another size empties acc, which no later fold
// repairs and the root's resolve refuses.
func sumVolume(acc, in []byte) []byte {
	if len(in) != len(acc) {
		return acc[:0]
	}
	return collectives.SumInt64(acc, in)
}

// warmup performs the first-execution initialization work: allocating
// framebuffers and building lookup tables. It stands in for the dynamic
// library loading and Python interpreter startup the paper observes as a
// first-iteration spike whenever a new server joins (Figs. 9-10). It
// returns the KiB of table it built and its own duration, so the spike is
// charged to the execute that paid it.
func warmup(kib int, w, h int) Stats {
	t0 := time.Now()
	if kib <= 0 {
		kib = 4096
	}
	table := make([]float64, kib*128) // kib KiB of float64 table
	acc := 0.0
	for i := range table {
		table[i] = math.Sqrt(float64(i%4096)) * math.Sin(float64(i%257))
		acc += table[i]
	}
	fb := render.NewImage(w, h)
	fb.SetBackground(uint8(int(acc)&0xff), 0, 0)
	return Stats{WarmupKiB: kib, WarmupSeconds: time.Since(t0).Seconds()}
}
