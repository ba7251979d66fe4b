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
//   - "catalyst/volume": block merging followed by volume rendering of
//     unstructured grids with ordered compositing. Used by the Deep Water
//     Impact experiments (Figs. 1b, 7, 10).
//
// Pipelines never name a communication layer: they receive a communicator
// at activation (from Colza, a MoNA communicator over the 2PC-pinned
// view) and wrap it in a vtk.Controller, exactly the injection the paper
// performs with vtkMonaController. The same execution functions run
// standalone over a static mini-MPI world for the "MPI" comparison arms.
package catalyst

import (
	"encoding/binary"
	"math"
	"time"

	"colza/internal/collectives"
	"colza/internal/comm"
	"colza/internal/icet"
	"colza/internal/render"
	"colza/internal/vtk"
)

// boundsTag is the collective tag for global-bounds agreement.
const boundsTag = 6100

// globalBounds allreduces per-rank bounds so every rank frames the same
// camera even though it holds different blocks. Empty ranks contribute
// +/-Inf and do not shrink the result.
func globalBounds(c comm.Communicator, lo, hi render.Vec3) (render.Vec3, render.Vec3, error) {
	if c == nil || c.Size() == 1 {
		return lo, hi, nil
	}
	buf := make([]byte, 24)
	for k := 0; k < 3; k++ {
		binary.LittleEndian.PutUint32(buf[4*k:], math.Float32bits(float32(lo[k])))
		binary.LittleEndian.PutUint32(buf[12+4*k:], math.Float32bits(float32(-hi[k])))
	}
	out, err := c.AllReduce(boundsTag, buf, collectives.MinFloat32)
	if err != nil {
		return lo, hi, err
	}
	var glo, ghi render.Vec3
	for k := 0; k < 3; k++ {
		glo[k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(out[4*k:])))
		ghi[k] = -float64(math.Float32frombits(binary.LittleEndian.Uint32(out[12+4*k:])))
	}
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
	LocalCells     int     // voxel cells scanned, once per isovalue (iso); cells merged (volume)
	LocalTriangles int     // triangles extracted (iso)
	WarmupKiB      int     // warm-up table built by this call (an instance's first execute)
	ExtractSeconds float64 // contour/clip or merge
	RenderSeconds  float64 // rasterize/splat
	WarmupSeconds  float64 // first-activation init, when charged to this call
	CompositeSecs  float64 // compositing, including peer waits
	TotalSeconds   float64 // the whole execute
}

// IsoConfig configures the isosurface pipeline (JSON, passed through the
// admin create_pipeline call — the analog of the Catalyst Python script
// exported from ParaView).
type IsoConfig struct {
	Field       string      `json:"field"`
	IsoValues   []float64   `json:"isovalues"`
	Width       int         `json:"width"`
	Height      int         `json:"height"`
	ScalarRange [2]float64  `json:"scalar_range"`
	Clip        *ClipSpec   `json:"clip,omitempty"`
	Camera      *CameraSpec `json:"camera,omitempty"`
	Strategy    string      `json:"strategy,omitempty"` // "tree" (default) or "bswap"
	ColorMap    string      `json:"colormap,omitempty"`
	EmitImage   bool        `json:"emit_image,omitempty"` // return PNG from rank 0
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

// CameraSpec overrides the automatic camera (the analog of the camera
// state a ParaView-exported Catalyst script carries). Zero value = frame
// the data automatically.
type CameraSpec struct {
	Eye    [3]float64 `json:"eye"`
	LookAt [3]float64 `json:"lookat"`
	Up     [3]float64 `json:"up"`
	FovY   float64    `json:"fovy,omitempty"`
}

// camera resolves a spec (or automatic framing) into a render.Camera.
func resolveCamera(spec *CameraSpec, lo, hi render.Vec3) render.Camera {
	if spec == nil {
		return render.DefaultCamera(lo, hi)
	}
	up := render.Vec3{spec.Up[0], spec.Up[1], spec.Up[2]}
	if up == (render.Vec3{}) {
		up = render.Vec3{0, 1, 0}
	}
	fov := spec.FovY
	if fov <= 0 {
		fov = 45
	}
	diag := render.Vec3{hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]}.Norm()
	if diag == 0 {
		diag = 1
	}
	return render.Camera{
		Eye:    render.Vec3{spec.Eye[0], spec.Eye[1], spec.Eye[2]},
		LookAt: render.Vec3{spec.LookAt[0], spec.LookAt[1], spec.LookAt[2]},
		Up:     up,
		FovY:   fov,
		Near:   diag * 0.01,
		Far:    diag * 20,
	}
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
// and the local framebuffer. An owner that keeps it between executes (one
// IsoPipeline instance, never two goroutines at once) pays for that storage
// once: execute resets and refills it, and allocates only when an iteration
// extracts more triangles than any before it or the frame size changes.
// Nothing computed in one execute is reused by the next.
//
// Ownership of the framebuffer: icet.Composite hands the local framebuffer
// back as its result when the group has one rank, so the image execute
// returns may be ws.frame. It is valid until the next execute on the same
// workspace and must not be retained past it, nor handed to
// render.PutImage.
type isoWorkspace struct {
	surface vtk.TriangleMesh
	frame   *render.Image
}

func (ws *isoWorkspace) execute(ctrl *vtk.Controller, blocks []*vtk.ImageData, cfg IsoConfig) (Stats, *render.Image, error) {
	cfg.withDefaults()
	var st Stats
	start := time.Now()

	// Surface extraction: the computation-heavy, embarrassingly parallel
	// part.
	var clip *vtk.Plane
	if cfg.Clip != nil {
		clip = &vtk.Plane{
			Normal: [3]float32{float32(cfg.Clip.Normal[0]), float32(cfg.Clip.Normal[1]), float32(cfg.Clip.Normal[2])},
			Offset: float32(cfg.Clip.Offset),
		}
	}
	surface := &ws.surface
	t0 := time.Now()
	surface.Reset()
	for _, blk := range blocks {
		if err := vtk.ExtractIsosurfaces(surface, blk, cfg.Field, cfg.IsoValues, clip); err != nil {
			return st, nil, err
		}
		st.LocalCells += blk.NumCells() * len(cfg.IsoValues)
	}
	st.ExtractSeconds = time.Since(t0).Seconds()
	st.LocalTriangles = surface.NumTriangles()

	// Agree on a global camera.
	lo, hi := render.MeshBounds(surface)
	if surface.NumTriangles() == 0 {
		lo = render.Vec3{math.Inf(1), math.Inf(1), math.Inf(1)}
		hi = render.Vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	}
	glo, ghi, err := globalBounds(ctrl.Communicator(), lo, hi)
	if err != nil {
		return st, nil, err
	}
	if math.IsInf(glo[0], 1) { // nobody has geometry
		glo, ghi = render.Vec3{}, render.Vec3{1, 1, 1}
	}
	cam := resolveCamera(cfg.Camera, glo, ghi)

	// Local rendering.
	t1 := time.Now()
	im := ws.frame
	if im == nil || im.W != cfg.Width || im.H != cfg.Height {
		im = render.NewImage(cfg.Width, cfg.Height)
		ws.frame = im
	} else {
		im.Clear()
	}
	render.RasterizeMesh(im, cam, surface, pickColorMap(cfg.ColorMap), cfg.ScalarRange)
	st.RenderSeconds = time.Since(t1).Seconds()

	// Parallel compositing — the only communication-intensive step.
	compStart := time.Now()
	icetComm, err := icet.FromController(ctrl)
	if err != nil {
		return st, nil, err
	}
	out, err := icet.Composite(im, icetComm, icet.ParseStrategy(cfg.Strategy), icet.Depth, 0)
	if err != nil {
		return st, nil, err
	}
	st.CompositeSecs = time.Since(compStart).Seconds()
	st.TotalSeconds = time.Since(start).Seconds()
	return st, out, nil
}

// VolumeConfig configures the unstructured-grid volume pipeline.
type VolumeConfig struct {
	Field       string      `json:"field"`
	Width       int         `json:"width"`
	Height      int         `json:"height"`
	ScalarRange [2]float64  `json:"scalar_range"`
	Opacity     float64     `json:"opacity,omitempty"`
	PointSize   float64     `json:"point_size,omitempty"`
	Camera      *CameraSpec `json:"camera,omitempty"`
	Strategy    string      `json:"strategy,omitempty"`
	ColorMap    string      `json:"colormap,omitempty"`
	EmitImage   bool        `json:"emit_image,omitempty"`
	WarmupKiB   int         `json:"warmup_kib,omitempty"`
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

// ExecuteVolume runs the DWI pipeline body: merge the staged blocks,
// volume-splat locally, composite with ordered blending.
func ExecuteVolume(ctrl *vtk.Controller, grids []*vtk.UnstructuredGrid, cfg VolumeConfig) (Stats, *render.Image, error) {
	cfg.withDefaults()
	var st Stats
	start := time.Now()

	t0 := time.Now()
	merged, err := vtk.MergeUnstructured(grids...)
	st.ExtractSeconds = time.Since(t0).Seconds()
	if err != nil {
		return st, nil, err
	}
	st.LocalCells = merged.NumCells()

	lo, hi := render.GridBounds(merged)
	if merged.NumPoints() == 0 {
		lo = render.Vec3{math.Inf(1), math.Inf(1), math.Inf(1)}
		hi = render.Vec3{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	}
	glo, ghi, err := globalBounds(ctrl.Communicator(), lo, hi)
	if err != nil {
		return st, nil, err
	}
	if math.IsInf(glo[0], 1) {
		glo, ghi = render.Vec3{}, render.Vec3{1, 1, 1}
	}
	cam := resolveCamera(cfg.Camera, glo, ghi)

	t1 := time.Now()
	im := render.NewImage(cfg.Width, cfg.Height)
	var spErr error
	if merged.NumCells() > 0 {
		spErr = render.SplatVolume(im, cam, merged, render.VolumeOptions{
			Field:       cfg.Field,
			ScalarRange: cfg.ScalarRange,
			ColorMap:    pickColorMap(cfg.ColorMap),
			Opacity:     cfg.Opacity,
			PointSize:   cfg.PointSize,
		})
	}
	st.RenderSeconds = time.Since(t1).Seconds()
	if spErr != nil {
		return st, nil, spErr
	}

	compStart := time.Now()
	icetComm, err := icet.FromController(ctrl)
	if err != nil {
		return st, nil, err
	}
	out, err := icet.Composite(im, icetComm, icet.ParseStrategy(cfg.Strategy), icet.Ordered, 0)
	if err != nil {
		return st, nil, err
	}
	st.CompositeSecs = time.Since(compStart).Seconds()
	st.TotalSeconds = time.Since(start).Seconds()
	return st, out, nil
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
