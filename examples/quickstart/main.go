// Quickstart: the smallest complete Colza deployment.
//
// It starts two staging servers on an in-process network, creates an
// isosurface pipeline on both through the admin interface, and runs one in
// situ iteration (activate / stage / execute / deactivate) on Mandelbulb
// data from two simulation ranks, each with its own client. Rank 0 runs
// the 2PC activate and hands the pinned view to rank 1 as bytes
// (MemberView.Encode), as an MPI broadcast would; each rank stages half of
// the blocks, and rank 0 executes and writes the composited image to
// quickstart.png.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"encoding/json"
	"errors"
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

// ranks is the number of simulation ranks; rank r stages blocks r,
// r+ranks, ...
const ranks = 2

func run(out io.Writer, dir string) error {
	catalyst.Register()

	// 1. A network and two staging servers: the first creates the SSG
	//    group, the second joins it.
	net := na.NewInprocNetwork()
	ssgCfg := ssg.Config{GossipPeriod: 10 * time.Millisecond}
	s0, err := core.StartInprocServer(net, "server0", core.ServerConfig{SSG: ssgCfg})
	if err != nil {
		return err
	}
	defer s0.Shutdown()
	s1, err := core.StartInprocServer(net, "server1", core.ServerConfig{Bootstrap: s0.Addr(), SSG: ssgCfg})
	if err != nil {
		return err
	}
	defer s1.Shutdown()
	if err := core.WaitMembers([]*core.Server{s0, s1}, 2, 10*time.Second); err != nil {
		return err
	}
	fmt.Fprintln(out, "staging area:", s0.Group.Members())

	// 2. Rank 0's client; its admin handle instantiates the pipeline on
	//    every server (parallel pipelines need one instance per staging
	//    process).
	ep, err := net.Listen("rank0")
	if err != nil {
		return err
	}
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	admin := core.NewAdminClient(mi)
	cfg, err := json.Marshal(catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: 400, Height: 400,
		ScalarRange: [2]float64{0, 32}, ColorMap: "viridis", EmitImage: true,
	})
	if err != nil {
		return err
	}
	for _, addr := range []string{s0.Addr(), s1.Addr()} {
		if err := admin.CreatePipeline(addr, "viz", catalyst.IsoPipelineType, cfg); err != nil {
			return err
		}
	}

	// 3. One in situ iteration. Rank 0 activates and shares the pinned
	//    view; every rank generates and stages its own blocks (the server
	//    pulls them, RDMA-style); once all have staged, rank 0 triggers
	//    the pipeline.
	h := core.NewClient(mi).Handle("viz", s0.Addr())
	mb := sim.DefaultMandelbulb([3]int{48, 48, 24}, 4)
	views := make(chan []byte, 1)
	staged := make(chan error, 1)
	go func() { staged <- rank1(net, s0.Addr(), mb, views) }()

	view, err := h.Activate(1)
	if err != nil {
		close(views)
		<-staged
		return err
	}
	views <- view.Encode()
	fmt.Fprintf(out, "iteration 1 pinned on %d servers (epoch %d)\n", len(view.Members), view.Epoch)
	if err := errors.Join(stage(h, mb, 0), <-staged); err != nil {
		return err
	}
	results, err := h.Execute(1)
	if err != nil {
		return err
	}
	if err := h.Deactivate(1); err != nil {
		return err
	}

	for rank, r := range results {
		fmt.Fprintf(out, "server %d: %d triangles from %d blocks in %.3fs\n",
			rank, int(r.Summary["triangles"]), int(r.Summary["blocks"]), r.Summary["execute_sec"])
	}
	name := filepath.Join(dir, "quickstart.png")
	if err := os.WriteFile(name, results[0].Image, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(out, "wrote", name)
	return nil
}

// rank1 is the second simulation rank: it installs the view rank 0
// activated and stages its share of the blocks.
func rank1(net *na.InprocNetwork, contact string, mb sim.MandelbulbConfig, views <-chan []byte) error {
	ep, err := net.Listen("rank1")
	if err != nil {
		return err
	}
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	h := core.NewClient(mi).Handle("viz", contact)
	// views is closed, so the bytes are empty, if rank 0 failed to activate.
	view, err := core.DecodeMemberView(<-views)
	if err != nil {
		return err
	}
	h.SetView(view)
	return stage(h, mb, 1)
}

// stage stages rank's share of iteration 1's blocks and waits until they
// are all in.
func stage(h *core.DistributedPipelineHandle, mb sim.MandelbulbConfig, rank int) error {
	for b := rank; b < mb.Blocks; b += ranks {
		if err := h.Stage(1, sim.MandelbulbMeta(mb, b), sim.MandelbulbBlock(mb, b, 1).Encode()); err != nil {
			return err
		}
	}
	return h.Flush(1)
}
