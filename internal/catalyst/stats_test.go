package catalyst

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/minimpi"
	"colza/internal/na"
	"colza/internal/ssg"
	"colza/internal/vtk"
)

// TestStatsPipelineGlobalMoments verifies the Section II-C reduction
// example: field statistics agree across all servers and match the data.
func TestStatsPipelineGlobalMoments(t *testing.T) {
	net := na.NewInprocNetwork()
	var servers []*core.Server
	for i := 0; i < 2; i++ {
		cfg := core.ServerConfig{SSG: ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20, Seed: int64(i + 1)}}
		if i > 0 {
			cfg.Bootstrap = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("stats%d", i), cfg)
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
	if err := core.WaitMembers(servers, 2, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	ep, _ := net.Listen("stats-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)
	cfg, _ := json.Marshal(StatsConfig{Field: "f"})
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "stats", StatsPipelineType, cfg); err != nil {
			t.Fatal(err)
		}
	}

	h := client.Handle("stats", servers[0].Addr())
	h.SetTimeout(5 * time.Second)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	// Two blocks with known values: block 0 = {1..8}, block 1 = {11..18}.
	var wantSum float64
	for b := 0; b < 2; b++ {
		img := vtk.NewImageData([3]int{2, 2, 2}, [3]float64{}, [3]float64{1, 1, 1})
		arr := img.AddPointArray("f", 1)
		for i := range arr.Data {
			arr.Data[i] = float32(10*b + i + 1)
			wantSum += float64(10*b + i + 1)
		}
		if err := h.Stage(1, core.BlockMeta{BlockID: b, Type: "imagedata"}, img.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := wantSum / 16
	for r, er := range res {
		if er.Summary["count"] != 16 {
			t.Fatalf("rank %d count = %v", r, er.Summary["count"])
		}
		if math.Abs(er.Summary["mean"]-wantMean) > 1e-9 {
			t.Fatalf("rank %d mean = %v, want %v", r, er.Summary["mean"], wantMean)
		}
		if er.Summary["min"] != 1 || er.Summary["max"] != 18 {
			t.Fatalf("rank %d extrema = [%v, %v]", r, er.Summary["min"], er.Summary["max"])
		}
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

// Unknown fields fail at execute, not silently.
func TestStatsPipelineUnknownField(t *testing.T) {
	factory, ok := core.LookupPipelineType(StatsPipelineType)
	if !ok {
		t.Fatal("stats type not registered")
	}
	b, err := factory(json.RawMessage(`{"field":"missing"}`))
	if err != nil {
		t.Fatal(err)
	}
	world := newSingletonComm(t)
	if err := b.Activate(core.IterationContext{Iteration: 1, Size: 1, Comm: world}); err != nil {
		t.Fatal(err)
	}
	img := vtk.NewImageData([3]int{2, 2, 2}, [3]float64{}, [3]float64{1, 1, 1})
	img.AddPointArray("present", 1)
	if err := b.Stage(1, core.BlockMeta{Type: "imagedata"}, img.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(1); err == nil {
		t.Fatal("missing field did not fail")
	}
}

// newSingletonComm builds a one-rank static communicator for unit tests.
func newSingletonComm(t *testing.T) *minimpi.Comm {
	t.Helper()
	world := minimpi.World(1)
	t.Cleanup(func() { world[0].Finalize() })
	return world[0]
}
