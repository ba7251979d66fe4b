// Deep Water Impact elastic demo: the paper's Figure 10 scenario. The
// DWI proxy replays a growing dataset; the staging area starts small,
// grows by one server every other iteration once the data takes off, and
// finally, after the growth phase, scales back down through the admin
// interface (the paper's scale-down path: an RPC asking a server to
// leave). It writes one volume rendering per iteration, dwi-NN.png.
//
// Run with:
//
//	go run ./examples/dwi-elastic
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/sim"
	"colza/internal/ssg"
)

func main() {
	if err := run(os.Stdout, "."); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer, dir string) error {
	catalyst.Register()
	net := na.NewInprocNetwork()
	ssgCfg := ssg.Config{GossipPeriod: 10 * time.Millisecond}
	dwi := sim.DWIConfig{Blocks: 16, Iterations: 12, BaseRes: 24, GrowthRes: 3}
	const maxServers = 4

	pcfgJSON, err := json.Marshal(catalyst.VolumeConfig{
		Field: "velocity", Width: 400, Height: 400, ScalarRange: [2]float64{0, 2},
		PointSize: 3, EmitImage: true, WarmupKiB: 2048,
	})
	if err != nil {
		return err
	}

	ep, err := net.Listen("dwi-client")
	if err != nil {
		return err
	}
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	admin := core.NewAdminClient(mi)

	var servers []*core.Server
	defer func() {
		for _, s := range servers {
			s.Shutdown()
		}
	}()
	// addServer starts one more server, waits until every view holds it,
	// and creates the pipeline on it.
	addServer := func() error {
		cfg := core.ServerConfig{SSG: ssgCfg}
		if len(servers) > 0 {
			cfg.Bootstrap = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("dwi-server%d", len(servers)), cfg)
		if err != nil {
			return err
		}
		servers = append(servers, s)
		if err := core.WaitMembers(servers, len(servers), 10*time.Second); err != nil {
			return err
		}
		return admin.CreatePipeline(s.Addr(), "dwi", catalyst.VolumePipelineType, pcfgJSON)
	}
	if err := addServer(); err != nil {
		return err
	}
	h := core.NewClient(mi).Handle("dwi", servers[0].Addr())

	// iterate runs iteration it on step's blocks and prints a table row.
	iterate := func(it, step int) error {
		view, err := h.Activate(uint64(it))
		if err != nil {
			return err
		}
		for b := 0; b < dwi.Blocks; b++ {
			g := sim.DWIIterationBlock(dwi, step, b)
			meta := core.BlockMeta{Field: "velocity", BlockID: b, Type: "ugrid"}
			if err := h.Stage(uint64(it), meta, g.Encode()); err != nil {
				return err
			}
		}
		t0 := time.Now()
		results, err := h.Execute(uint64(it))
		if err != nil {
			return err
		}
		exec := time.Since(t0)
		if err := h.Deactivate(uint64(it)); err != nil {
			return err
		}
		var cells int
		for _, r := range results {
			cells += int(r.Summary["cells"])
		}
		fmt.Fprintf(out, "%4d  %7d  %8d  %s\n", it, len(view.Members), cells, exec.Round(time.Millisecond))
		return os.WriteFile(filepath.Join(dir, fmt.Sprintf("dwi-%02d.png", it)), results[0].Image, 0o644)
	}

	fmt.Fprintln(out, "iter  servers  cells     execute")
	for it := 1; it <= dwi.Iterations; it++ {
		// Grow once the dataset grows (every other iteration from 4).
		if it >= 4 && it%2 == 0 && len(servers) < maxServers {
			if err := addServer(); err != nil {
				return err
			}
			fmt.Fprintf(out, "      >> scaled up to %d servers\n", len(servers))
		}
		if err := iterate(it, it); err != nil {
			return err
		}
	}

	// Scale back down: ask the most recently added server to leave via
	// the admin interface, then rerun the last step's data on the smaller
	// staging area.
	last := servers[len(servers)-1]
	fmt.Fprintf(out, "      >> asking %s to leave\n", last.Addr())
	if err := admin.RequestLeave(last.Addr()); err != nil {
		return err
	}
	if err := core.WaitMembers(servers, len(servers)-1, 10*time.Second); err != nil {
		return err
	}
	return iterate(dwi.Iterations+1, dwi.Iterations)
}
