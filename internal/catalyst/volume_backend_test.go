package catalyst

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"colza/internal/collectives"
	"colza/internal/comm"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/sim"
	"colza/internal/ssg"
	"colza/internal/vtk"
)

// TestVolumePipelineThroughColza drives the registered catalyst/volume
// backend end to end — ugrid staging, splat, summed composite — on a
// deployment that grows from 1 to 3 servers between iterations, staging
// the same blocks every iteration: each iteration's PNG must be the
// 1-server one, byte for byte, so a live resize keeps the picture.
func TestVolumePipelineThroughColza(t *testing.T) {
	net := na.NewInprocNetwork()
	ep, _ := net.Listen("vol-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)
	pcfg, _ := json.Marshal(VolumeConfig{
		Field: "velocity", Width: 48, Height: 48, ScalarRange: [2]float64{0, 2},
		ColorMap: "viridis", EmitImage: true, WarmupKiB: 16,
	})
	var servers []*core.Server
	defer func() {
		for _, s := range servers {
			s.Shutdown()
		}
	}()
	addServer := func() {
		cfg := core.ServerConfig{SSG: ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20, Seed: int64(len(servers) + 1)}}
		if len(servers) > 0 {
			cfg.Bootstrap = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("vol%d", len(servers)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		if err := core.WaitMembers(servers, len(servers), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := admin.CreatePipeline(s.Addr(), "vol", VolumePipelineType, pcfg); err != nil {
			t.Fatal(err)
		}
	}

	addServer()
	h := client.Handle("vol", servers[0].Addr())
	h.SetTimeout(30 * time.Second)
	dwi := sim.DWIConfig{Blocks: 4, Iterations: 10, BaseRes: 16, GrowthRes: 2}
	var want string
	for it := uint64(1); it <= 3; it++ {
		if it > 1 {
			addServer()
		}
		view, err := h.Activate(it)
		if err != nil {
			t.Fatal(err)
		}
		if len(view.Members) != len(servers) {
			t.Fatalf("iteration %d runs on %d servers, want %d", it, len(view.Members), len(servers))
		}
		for b := 0; b < dwi.Blocks; b++ {
			g := sim.DWIIterationBlock(dwi, 5, b)
			meta := core.BlockMeta{Field: "velocity", BlockID: b, Type: "ugrid"}
			if err := h.Stage(it, meta, g.Encode()); err != nil {
				t.Fatal(err)
			}
		}
		res, err := h.Execute(it)
		if err != nil {
			t.Fatal(err)
		}
		var cells float64
		for _, r := range res {
			cells += r.Summary["cells"]
		}
		if cells == 0 {
			t.Fatal("no cells staged anywhere")
		}
		if it == 1 && res[0].Summary["warmup_sec"] <= 0 {
			t.Fatal("first execute did not report warmup")
		}
		if len(res[0].Image) == 0 || res[0].Image[1] != 'P' {
			t.Fatal("no PNG from rank 0")
		}
		if got := sha(res[0].Image); want == "" {
			want = got
		} else if got != want {
			t.Errorf("iteration %d on %d servers: PNG %s, the 1-server one %s", it, len(servers), got, want)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVolumePipelineRendersNaNAndInfScalars: one staged block of garbage
// scalars must render, not panic the server's execute. Viridis turns the
// normalized scalar into a palette index, which int(NaN) made negative.
func TestVolumePipelineRendersNaNAndInfScalars(t *testing.T) {
	factory, _ := core.LookupPipelineType(VolumePipelineType)
	for _, cmap := range []string{"viridis", "coolwarm"} {
		cfg, _ := json.Marshal(VolumeConfig{Field: "velocity", Width: 32, Height: 32, ScalarRange: [2]float64{0, 2}, ColorMap: cmap})
		b, err := factory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := sim.DWIIterationBlock(sim.DWIConfig{Blocks: 1, Iterations: 4, BaseRes: 6, GrowthRes: 1}, 1, 0)
		vel, err := g.CellArray("velocity")
		if err != nil {
			t.Fatal(err)
		}
		garbage := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
		for i := range vel.Data {
			vel.Data[i] = garbage[i%len(garbage)]
		}
		if err := b.Activate(core.IterationContext{Iteration: 1, Size: 1, Comm: newSingletonComm(t)}); err != nil {
			t.Fatal(err)
		}
		if err := b.Stage(1, core.BlockMeta{Field: "velocity", Type: "ugrid"}, g.Encode()); err != nil {
			t.Fatal(err)
		}
		res, err := b.Execute(1)
		if err != nil {
			t.Fatalf("%s: %v", cmap, err)
		}
		if res.Summary["cells"] == 0 {
			t.Fatalf("%s: no cells rendered", cmap)
		}
		if err := b.Deactivate(1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVolumePipelineRefusesOutOfRangeCell: a staged tetra whose last
// vertex is not among the block's points is refused at Stage, so that no
// execute splats a centroid read past the points.
func TestVolumePipelineRefusesOutOfRangeCell(t *testing.T) {
	factory, _ := core.LookupPipelineType(VolumePipelineType)
	b, err := factory(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := vtk.NewUnstructuredGrid()
	for i := 0; i < 4; i++ {
		g.AddPoint(float32(i&1), float32(i>>1&1), float32(i>>2&1))
	}
	g.AddCell(vtk.CellTetra, 0, 1, 2, 1000)
	g.AddCellArray("velocity", 1)
	if err := b.Activate(core.IterationContext{Iteration: 1, Size: 1, Comm: newSingletonComm(t)}); err != nil {
		t.Fatal(err)
	}
	if err := b.Stage(1, core.BlockMeta{Field: "velocity", Type: "ugrid"}, g.Encode()); err == nil {
		t.Fatal("tetra over point 1000 of 4 staged")
	}
	if _, err := b.Execute(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

// TestVolumePipelineTypeChecking mirrors the iso backend's error paths.
func TestVolumePipelineTypeChecking(t *testing.T) {
	factory, ok := core.LookupPipelineType(VolumePipelineType)
	if !ok {
		t.Fatal("volume type not registered")
	}
	b, err := factory(nil)
	if err != nil {
		t.Fatal(err)
	}
	world := newSingletonComm(t)
	if err := b.Activate(core.IterationContext{Iteration: 1, Size: 1, Comm: world}); err != nil {
		t.Fatal(err)
	}
	if err := b.Activate(core.IterationContext{Iteration: 2, Size: 1, Comm: world}); err == nil {
		t.Fatal("double activate accepted")
	}
	if err := b.Stage(1, core.BlockMeta{Type: "imagedata"}, nil); err == nil {
		t.Fatal("volume pipeline accepted imagedata")
	}
	if err := b.Stage(1, core.BlockMeta{Type: "ugrid"}, []byte{1}); err == nil {
		t.Fatal("garbage ugrid accepted")
	}
	if err := b.Stage(9, core.BlockMeta{Type: "ugrid"}, vtk.NewUnstructuredGrid().Encode()); err == nil {
		t.Fatal("wrong-iteration stage accepted")
	}
	if _, err := b.Execute(9); err == nil {
		t.Fatal("wrong-iteration execute accepted")
	}
	if err := b.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Destroy(); err != nil {
		t.Fatal(err)
	}
	// Stats backend destroy path too.
	sFactory, _ := core.LookupPipelineType(StatsPipelineType)
	sb, _ := sFactory(nil)
	if err := sb.Destroy(); err != nil {
		t.Fatal(err)
	}
}

// gateComm is a two-rank communicator seen from rank 0 whose AllReduce —
// the volume execute's bounds agreement, which comes between its two reads
// of the staged grids — says so on entered and then waits for open to
// close. Its collectives return a private copy of the caller's data, as a
// reduce over two ranks does.
type gateComm struct{ entered, open chan struct{} }

func (gateComm) Rank() int                     { return 0 }
func (gateComm) Size() int                     { return 2 }
func (gateComm) Send(int, int, []byte) error   { return errors.New("gateComm: no peer") }
func (gateComm) Recv(int, int) ([]byte, error) { return nil, errors.New("gateComm: no peer") }
func (gateComm) Reduce(_, _ int, data []byte, _ collectives.Op) ([]byte, error) {
	return bytes.Clone(data), nil
}
func (g gateComm) AllReduce(_ int, data []byte, _ collectives.Op) ([]byte, error) {
	g.entered <- struct{}{}
	<-g.open
	return bytes.Clone(data), nil
}

// TestAbortMidExecuteKeepsBlocks: a Deactivate that arrives while an
// execute still reads its staged grids, then the next iteration's activate
// and stages, must leave those grids to the execute: it renders its own
// bytes, though every stage of the iterations around it decodes into the
// grids the iteration before released. The grids of all three iterations
// have one shape, so a decode into the aborted iteration's grids would
// reuse all of their storage.
func TestAbortMidExecuteKeepsBlocks(t *testing.T) {
	cfg := VolumeConfig{Field: "velocity", Width: 32, Height: 32, ScalarRange: [2]float64{0, 2}, EmitImage: true, WarmupKiB: 16}
	raw, _ := json.Marshal(cfg)
	factory, _ := core.LookupPipelineType(VolumePipelineType)
	b, err := factory(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Destroy()
	dwi := sim.DWIConfig{Blocks: 2, Iterations: 10, BaseRes: 8}
	grids := func(step int) []*vtk.UnstructuredGrid {
		return []*vtk.UnstructuredGrid{sim.DWIIterationBlock(dwi, step, 0), sim.DWIIterationBlock(dwi, step, 1)}
	}
	pngOf := func(gs []*vtk.UnstructuredGrid) []byte {
		_, img, err := ExecuteVolume(vtk.NewController("mpi", newSingletonComm(t)), gs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		png, err := img.PNG()
		if err != nil {
			t.Fatal(err)
		}
		return png
	}
	aborted, other := grids(3), grids(7)
	want, wantOther := pngOf(aborted), pngOf(other)
	if bytes.Equal(want, wantOther) {
		t.Fatal("the two steps render alike: the test could not tell them apart")
	}
	start := func(it uint64, c comm.Communicator, gs []*vtk.UnstructuredGrid) {
		if err := b.Activate(core.IterationContext{Iteration: it, Size: c.Size(), Comm: c}); err != nil {
			t.Fatal(err)
		}
		for i, g := range gs {
			if err := b.Stage(it, core.BlockMeta{Field: "velocity", BlockID: i, Type: "ugrid"}, g.Encode()); err != nil {
				t.Fatal(err)
			}
		}
	}
	execute := func(it uint64) []byte {
		res, err := b.Execute(it)
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		return res.Image
	}

	// Iteration 1 runs whole and releases its grids to the store.
	start(1, newSingletonComm(t), other)
	if got := execute(1); !bytes.Equal(got, wantOther) {
		t.Fatal("iteration 1 renders another picture")
	}
	if err := b.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	// Iteration 2 decodes into them and is deactivated mid-execute;
	// iteration 3 activates and stages before that execute goes on.
	gate := gateComm{entered: make(chan struct{}, 1), open: make(chan struct{})}
	opened := false
	defer func() { // a failure below must not leave the execute parked
		if !opened {
			close(gate.open)
		}
	}()
	start(2, gate, aborted)
	got := make(chan []byte, 1)
	go func() {
		res, err := b.Execute(2)
		if err != nil {
			t.Errorf("iteration 2: %v", err)
		}
		got <- res.Image
	}()
	<-gate.entered
	if err := b.Deactivate(2); err != nil {
		t.Fatal(err)
	}
	start(3, newSingletonComm(t), other)
	close(gate.open)
	opened = true
	if png := <-got; !bytes.Equal(png, want) {
		t.Fatal("the aborted execute rendered bytes the next iteration staged")
	}
	if got := execute(3); !bytes.Equal(got, wantOther) {
		t.Fatal("iteration 3 renders another picture")
	}
}
