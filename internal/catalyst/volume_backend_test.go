package catalyst

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/sim"
	"colza/internal/ssg"
	"colza/internal/vtk"
)

// TestVolumePipelineThroughColza drives the registered catalyst/volume
// backend end to end: ugrid staging, merge, splat, ordered compositing.
func TestVolumePipelineThroughColza(t *testing.T) {
	net := na.NewInprocNetwork()
	var servers []*core.Server
	for i := 0; i < 2; i++ {
		cfg := core.ServerConfig{SSG: ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20, Seed: int64(i + 1)}}
		if i > 0 {
			cfg.Bootstrap = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("vol%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	defer func() {
		for _, s := range servers {
			s.Shutdown()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && len(servers[0].Group.Members()) != 2 {
		time.Sleep(2 * time.Millisecond)
	}

	ep, _ := net.Listen("vol-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)
	cfg, _ := json.Marshal(VolumeConfig{
		Field: "velocity", Width: 48, Height: 48, ScalarRange: [2]float64{0, 2},
		ColorMap: "viridis", EmitImage: true, WarmupKiB: 16,
	})
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "vol", VolumePipelineType, cfg); err != nil {
			t.Fatal(err)
		}
	}

	h := client.Handle("vol", servers[0].Addr())
	h.SetTimeout(30 * time.Second)
	dwi := sim.DWIConfig{Blocks: 4, Iterations: 10, BaseRes: 16, GrowthRes: 2}
	for it := uint64(1); it <= 2; it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < dwi.Blocks; b++ {
			g := sim.DWIIterationBlock(dwi, int(it)+4, b)
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
