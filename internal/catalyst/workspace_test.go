package catalyst

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"colza/internal/core"
	"colza/internal/minimpi"
	"colza/internal/vtk"
)

// newIsoPipeline builds an instance through the registry, as a server does.
func newIsoPipeline(t *testing.T, cfg IsoConfig) *IsoPipeline {
	t.Helper()
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	factory, ok := core.LookupPipelineType(IsoPipelineType)
	if !ok {
		t.Fatal("iso type not registered")
	}
	b, err := factory(raw)
	if err != nil {
		t.Fatal(err)
	}
	return b.(*IsoPipeline)
}

// isoOutput is everything one iteration leaves behind that a later one
// could corrupt: the PNG, the local framebuffer and the surface.
type isoOutput struct {
	png, frame []byte
	surface    vtk.TriangleMesh
	triangles  int
}

// iterate drives one activate/stage/execute/deactivate on a one-rank group
// and snapshots the output.
func iterate(p *IsoPipeline, it uint64, blocks []*vtk.ImageData) (isoOutput, error) {
	world := minimpi.World(1)
	defer world[0].Finalize()
	if err := p.Activate(core.IterationContext{Iteration: it, Size: 1, Comm: world[0]}); err != nil {
		return isoOutput{}, err
	}
	for _, blk := range blocks {
		if err := p.Stage(it, core.BlockMeta{Type: "imagedata"}, blk.Encode()); err != nil {
			return isoOutput{}, err
		}
	}
	res, err := p.Execute(it)
	if err != nil {
		return isoOutput{}, err
	}
	out := isoOutput{png: res.Image, frame: p.ws.frame.Encode(), triangles: int(res.Summary["triangles"])}
	out.surface.Append(&p.ws.surface)
	return out, p.Deactivate(it)
}

func runIteration(t *testing.T, p *IsoPipeline, it uint64, blocks []*vtk.ImageData) isoOutput {
	t.Helper()
	out, err := iterate(p, it, blocks)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func requireSameOutput(t *testing.T, what string, got, want isoOutput) {
	t.Helper()
	if got.triangles != want.triangles {
		t.Fatalf("%s: %d triangles, want %d", what, got.triangles, want.triangles)
	}
	if !bytes.Equal(got.png, want.png) {
		t.Fatalf("%s: PNG differs", what)
	}
	if !bytes.Equal(got.frame, want.frame) {
		t.Fatalf("%s: local framebuffer differs", what)
	}
	if !bytes.Equal(got.surface.Encode(), want.surface.Encode()) {
		t.Fatalf("%s: surface differs", what)
	}
}

// TestWorkspaceReuse: a pipeline that has rendered a large block set, then
// a small one, then nothing, produces what three fresh pipelines produce,
// byte for byte — nothing of an earlier iteration survives in the reused
// mesh or framebuffer.
func TestWorkspaceReuse(t *testing.T) {
	slabs := goldenSlabs(t)
	cfg := goldenConfig()
	cfg.EmitImage = true
	cfg.WarmupKiB = 16
	sets := [][]*vtk.ImageData{slabs, slabs[1:2], nil}

	reused := newIsoPipeline(t, cfg)
	var last int
	for i, blocks := range sets {
		got := runIteration(t, reused, uint64(i+1), blocks)
		want := runIteration(t, newIsoPipeline(t, cfg), uint64(i+1), blocks)
		requireSameOutput(t, []string{"large set", "small set after large", "empty set after small"}[i], got, want)
		if i > 0 && got.triangles >= last {
			t.Fatalf("set %d has %d triangles, the one before %d: not shrinking", i, got.triangles, last)
		}
		last = got.triangles
	}
	if last != 0 {
		t.Fatalf("the empty set extracted %d triangles", last)
	}
}

// TestConcurrentPipelines: two instances executing at the same time (the
// two co-located ranks of a deployment) share nothing — each yields what it
// yields alone. Run under -race.
func TestConcurrentPipelines(t *testing.T) {
	slabs := goldenSlabs(t)
	cfg := goldenConfig()
	cfg.EmitImage = true
	cfg.WarmupKiB = 16
	sets := [2][]*vtk.ImageData{slabs[:2], slabs[2:]}
	var want [2]isoOutput
	for r := range sets {
		want[r] = runIteration(t, newIsoPipeline(t, cfg), 1, sets[r])
	}
	pipes := [2]*IsoPipeline{newIsoPipeline(t, cfg), newIsoPipeline(t, cfg)}
	var wg sync.WaitGroup
	for r := range sets {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for it := uint64(1); it <= 4; it++ {
				got, err := iterate(pipes[r], it, sets[r])
				if err != nil {
					t.Errorf("rank %d iteration %d: %v", r, it, err)
					return
				}
				if got.triangles != want[r].triangles || !bytes.Equal(got.png, want[r].png) || !bytes.Equal(got.frame, want[r].frame) {
					t.Errorf("rank %d iteration %d differs from its solo run", r, it)
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestExtractionStopsAtFirstError: a block without the configured field
// ends the extraction there — the blocks behind it are not contoured — and
// the error is returned.
func TestExtractionStopsAtFirstError(t *testing.T) {
	slabs := goldenSlabs(t)
	bad := vtk.NewImageData(slabs[1].Dims, slabs[1].Origin, slabs[1].Spacing)
	bad.AddPointArray("U", 1) // no "V"
	world := minimpi.World(1)
	defer world[0].Finalize()
	ctrl := vtk.NewController("mpi", world[0])
	cfg := goldenConfig()

	var first isoWorkspace
	if _, _, err := first.execute(ctrl, slabs[:1], cfg); err != nil {
		t.Fatal(err)
	}
	if first.surface.NumTriangles() == 0 {
		t.Fatal("the first slab has no surface: the test shows nothing")
	}

	var ws isoWorkspace
	_, img, err := ws.execute(ctrl, []*vtk.ImageData{slabs[0], bad, slabs[2], slabs[3]}, cfg)
	if err == nil || img != nil {
		t.Fatalf("a block without the field was accepted (err %v)", err)
	}
	if got, want := ws.surface.NumTriangles(), first.surface.NumTriangles(); got != want {
		t.Fatalf("%d triangles extracted before the error surfaced, want the first block's %d", got, want)
	}
}

// TestIsoPipelineRefusesVectorField: a well-formed staged block whose field
// has three components per point is accepted by Stage (it decodes) and
// refused by Execute with the kernel's typed error, not contoured through
// the wrong stride.
func TestIsoPipelineRefusesVectorField(t *testing.T) {
	blk := vtk.NewImageData([3]int{6, 6, 6}, [3]float64{}, [3]float64{1, 1, 1})
	vel := blk.AddPointArray("V", 3)
	for i := range vel.Data {
		vel.Data[i] = float32(i%11) * 0.05
	}
	p := newIsoPipeline(t, goldenConfig())
	world := minimpi.World(1)
	defer world[0].Finalize()
	if err := p.Activate(core.IterationContext{Iteration: 1, Size: 1, Comm: world[0]}); err != nil {
		t.Fatal(err)
	}
	if err := p.Stage(1, core.BlockMeta{Type: "imagedata"}, blk.Encode()); err != nil {
		t.Fatalf("a well-formed block was refused at stage: %v", err)
	}
	_, err := p.Execute(1)
	var ns *vtk.NotScalarError
	if !errors.As(err, &ns) {
		t.Fatalf("execute returned %v, want a *vtk.NotScalarError", err)
	}
	if ns.Array != "V" || ns.Components != 3 {
		t.Fatalf("error carries %+v", ns)
	}
	// The failed execute leaves the instance usable.
	if err := p.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	if got := runIteration(t, p, 2, goldenSlabs(t)[:1]); got.triangles == 0 {
		t.Fatal("no triangles after recovering from the refused block")
	}
}

// Destroy lets go of the workspace: a destroyed instance that something
// still references (a stopped server kept by its owner) holds no mesh and no
// framebuffer.
func TestDestroyReleasesWorkspace(t *testing.T) {
	p := newIsoPipeline(t, goldenConfig())
	if got := runIteration(t, p, 1, goldenSlabs(t)); got.triangles == 0 {
		t.Fatal("nothing extracted")
	}
	if p.ws.frame == nil || cap(p.ws.surface.Positions) == 0 {
		t.Fatal("the instance kept no workspace between iterations")
	}
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
	if p.ws.frame != nil || cap(p.ws.surface.Positions) != 0 {
		t.Fatal("Destroy kept the workspace")
	}
}
