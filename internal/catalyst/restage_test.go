package catalyst

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/sim"
	"colza/internal/ssg"
)

// restageCase is one catalyst pipeline with the blocks of one iteration
// and a block that is not block 0's bytes, for staging under id 0.
type restageCase struct {
	name, typ string
	cfg       any
	metas     []core.BlockMeta
	blocks    [][]byte
	other     []byte
}

func restageCases() []restageCase {
	mb := sim.DefaultMandelbulb([3]int{12, 12, 6}, 4)
	dwi := sim.DWIConfig{Blocks: 4, Iterations: 10, BaseRes: 12, GrowthRes: 2}
	iso := restageCase{name: "iso", typ: IsoPipelineType, other: sim.MandelbulbBlock(mb, 1, 2).Encode(), cfg: IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: 48, Height: 48,
		ScalarRange: [2]float64{0, 32}, EmitImage: true, WarmupKiB: 16,
	}}
	vol := restageCase{name: "volume", typ: VolumePipelineType, other: sim.DWIIterationBlock(dwi, 6, 0).Encode(), cfg: VolumeConfig{
		Field: "velocity", Width: 48, Height: 48, ScalarRange: [2]float64{0, 2}, EmitImage: true, WarmupKiB: 16,
	}}
	stats := restageCase{name: "stats", typ: StatsPipelineType, other: sim.MandelbulbBlock(mb, 1, 2).Encode(), cfg: StatsConfig{Field: "value"}}
	for b := 0; b < 4; b++ {
		iso.metas = append(iso.metas, sim.MandelbulbMeta(mb, b))
		iso.blocks = append(iso.blocks, sim.MandelbulbBlock(mb, b, 1).Encode())
		vol.metas = append(vol.metas, core.BlockMeta{Field: "velocity", BlockID: b, Type: "ugrid"})
		vol.blocks = append(vol.blocks, sim.DWIIterationBlock(dwi, 5, b).Encode())
	}
	stats.metas, stats.blocks = iso.metas, iso.blocks
	return []restageCase{iso, vol, stats}
}

// restageOutput is what a re-staged block must not change: the work summed
// over ranks, the global sample count and the root's PNG.
type restageOutput struct {
	cells, triangles, count float64
	png                     string
}

func outputOf(res []core.ExecResult) restageOutput {
	var out restageOutput
	for _, r := range res {
		out.cells += r.Summary["cells"]
		out.triangles += r.Summary["triangles"]
	}
	out.count = res[0].Summary["count"]
	out.png = sha(res[0].Image)
	return out
}

// checkRefusedUnderID fails the test unless err refuses a second block
// under id.
func checkRefusedUnderID(t *testing.T, what string, err error, id int) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block %d ", id)) {
		t.Errorf("%s: other bytes under a staged id: err = %v, want a refusal naming block %d", what, err, id)
	}
}

// TestRestageCountsOnceInProcess: staging is at-least-once, so every
// catalyst backend keeps one copy per block id. A retried block (same id,
// same bytes) leaves the iteration's output unchanged; other bytes under a
// staged id are refused.
func TestRestageCountsOnceInProcess(t *testing.T) {
	for _, tc := range restageCases() {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			factory, _ := core.LookupPipelineType(tc.typ)
			b, err := factory(raw)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Destroy()
			world := newSingletonComm(t)
			run := func(it uint64, copies int) restageOutput {
				if err := b.Activate(core.IterationContext{Iteration: it, Size: 1, Comm: world}); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < copies; c++ {
					for i, blk := range tc.blocks {
						if err := b.Stage(it, tc.metas[i], blk); err != nil {
							t.Fatalf("copy %d of block %d: %v", c, i, err)
						}
					}
				}
				checkRefusedUnderID(t, tc.name, b.Stage(it, tc.metas[0], tc.other), tc.metas[0].BlockID)
				res, err := b.Execute(it)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Deactivate(it); err != nil {
					t.Fatal(err)
				}
				return outputOf([]core.ExecResult{res})
			}
			once, twice := run(1, 1), run(2, 2)
			if twice != once {
				t.Fatalf("re-staged iteration %+v, staged once %+v", twice, once)
			}
		})
	}
}

// TestRestageCountsOnceThroughHandle: the same through a client handle on
// two servers. A re-staged block reaches the server that holds its first
// copy (placement follows the block id).
func TestRestageCountsOnceThroughHandle(t *testing.T) {
	net := na.NewInprocNetwork()
	servers := startServers(t, net, "restage", 2)
	ep, _ := net.Listen("restage-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)
	for _, tc := range restageCases() {
		t.Run(tc.name, func(t *testing.T) {
			raw, _ := json.Marshal(tc.cfg)
			for _, s := range servers {
				if err := admin.CreatePipeline(s.Addr(), tc.name, tc.typ, raw); err != nil {
					t.Fatal(err)
				}
			}
			h := client.Handle(tc.name, servers[0].Addr())
			h.SetTimeout(30 * time.Second)
			run := func(it uint64, copies int) restageOutput {
				if _, err := h.Activate(it); err != nil {
					t.Fatal(err)
				}
				for c := 0; c < copies; c++ {
					for i, blk := range tc.blocks {
						if err := h.Stage(it, tc.metas[i], blk); err != nil {
							t.Fatalf("copy %d of block %d: %v", c, i, err)
						}
					}
				}
				checkRefusedUnderID(t, tc.name, h.Stage(it, tc.metas[0], tc.other), tc.metas[0].BlockID)
				res, err := h.Execute(it)
				if err != nil {
					t.Fatal(err)
				}
				if err := h.Deactivate(it); err != nil {
					t.Fatal(err)
				}
				return outputOf(res)
			}
			once, twice := run(1, 1), run(2, 2)
			if twice != once {
				t.Fatalf("re-staged iteration %+v, staged once %+v", twice, once)
			}
		})
	}
}

// startServers starts n in-process servers named prefix0.. that know each
// other, and shuts them down when the test ends.
func startServers(t *testing.T, net *na.InprocNetwork, prefix string, n int) []*core.Server {
	t.Helper()
	var servers []*core.Server
	t.Cleanup(func() {
		for _, s := range servers {
			s.Shutdown()
		}
	})
	for i := 0; i < n; i++ {
		cfg := core.ServerConfig{SSG: ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20, Seed: int64(i + 1)}}
		if i > 0 {
			cfg.Bootstrap = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("%s%d", prefix, i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	if err := core.WaitMembers(servers, n, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return servers
}

// TestConcurrentStagesIntoSpares: stages that run at once, each block
// staged twice (the second a retry, whose spare goes back), decode into the
// blocks the iteration before released without two stages taking the same
// one: every execute counts each block once, with its own values.
func TestConcurrentStagesIntoSpares(t *testing.T) {
	p := newStatsForTest(t, "f")
	c := newSingletonComm(t)
	const blocks = 16
	for it := 1; it <= 4; it++ {
		if err := p.Activate(core.IterationContext{Iteration: uint64(it), Size: 1, Comm: c}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for b := 0; b < blocks; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				v := float32(100*it + b)
				data := statsImage(v, v, v, v, v, v, v, v)
				for try := 0; try < 2; try++ {
					if err := p.Stage(uint64(it), core.BlockMeta{BlockID: b, Type: "imagedata"}, data); err != nil {
						t.Error(err)
					}
				}
			}(b)
		}
		wg.Wait()
		res, err := p.Execute(uint64(it))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Summary["count"], float64(8*blocks); got != want {
			t.Errorf("iteration %d: count %v, want %v", it, got, want)
		}
		if got, want := res.Summary["mean"], float64(100*it)+7.5; got != want {
			t.Errorf("iteration %d: mean %v, want %v", it, got, want)
		}
		if err := p.Deactivate(uint64(it)); err != nil {
			t.Fatal(err)
		}
	}
}
