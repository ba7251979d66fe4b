// Overlap: the paper notes that "in a real application, only activate,
// stage, and deactivate calls would represent an overhead for the
// application. Since the purpose of a staging area is to perform analysis
// in the background, while the application continues running, the
// non-blocking version of execute would be used in practice."
//
// This example demonstrates exactly that: the simulation triggers the
// pipeline with NBExecute and immediately computes its next iteration
// while the staging area renders the previous one, then reaps the result.
// It prints both the simulation-visible overhead (activate+stage+reap) and
// the analysis time hidden behind the computation.
//
// Run with:
//
//	go run ./examples/overlap
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/sim"
	"colza/internal/ssg"
)

const iterations = 6

func main() {
	if err := run(os.Stdout, "."); err != nil {
		log.Fatal(err)
	}
}

// run writes nothing into dir: the overlap shows in the timings it prints.
func run(out io.Writer, dir string) error {
	catalyst.Register()
	net := na.NewInprocNetwork()
	ssgCfg := ssg.Config{GossipPeriod: 10 * time.Millisecond}
	s0, err := core.StartInprocServer(net, "ov-server0", core.ServerConfig{SSG: ssgCfg})
	if err != nil {
		return err
	}
	defer s0.Shutdown()
	s1, err := core.StartInprocServer(net, "ov-server1", core.ServerConfig{Bootstrap: s0.Addr(), SSG: ssgCfg})
	if err != nil {
		return err
	}
	defer s1.Shutdown()
	if err := core.WaitMembers([]*core.Server{s0, s1}, 2, 10*time.Second); err != nil {
		return err
	}

	ep, err := net.Listen("ov-client")
	if err != nil {
		return err
	}
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	admin := core.NewAdminClient(mi)
	pcfg, err := json.Marshal(catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: 300, Height: 300,
		ScalarRange: [2]float64{0, 32},
	})
	if err != nil {
		return err
	}
	for _, addr := range []string{s0.Addr(), s1.Addr()} {
		if err := admin.CreatePipeline(addr, "ov", catalyst.IsoPipelineType, pcfg); err != nil {
			return err
		}
	}

	h := core.NewClient(mi).Handle("ov", s0.Addr())
	mb := sim.DefaultMandelbulb([3]int{36, 36, 18}, 4)

	blocks := generate(mb, 1) // iteration 1, up front
	fmt.Fprintln(out, "iter  sim_overhead  hidden_analysis  next_iter_compute")
	for it := uint64(1); it <= iterations; it++ {
		t0 := time.Now()
		if _, err := h.Activate(it); err != nil {
			return err
		}
		for b, data := range blocks {
			if err := h.Stage(it, sim.MandelbulbMeta(mb, b), data); err != nil {
				return err
			}
		}
		// Fire the analysis and let it run in the background.
		pending := h.NBExecute(it)
		pendingStart := time.Now()
		overhead := time.Since(t0)

		// Meanwhile the "simulation" computes its next iteration.
		computeStart := time.Now()
		var next [][]byte
		if it < iterations {
			next = generate(mb, it+1)
		}
		compute := time.Since(computeStart)

		// Reap the analysis; if the computation was long enough, this is
		// nearly free — the analysis was fully hidden.
		if _, err := pending.Wait(); err != nil {
			return err
		}
		hidden := time.Since(pendingStart)
		if err := h.Deactivate(it); err != nil {
			return err
		}
		fmt.Fprintf(out, "%4d  %-12s  %-15s  %s\n",
			it, overhead.Round(100*time.Microsecond), hidden.Round(100*time.Microsecond), compute.Round(100*time.Microsecond))
		blocks = next
	}
	return nil
}

func generate(mb sim.MandelbulbConfig, it uint64) [][]byte {
	out := make([][]byte, mb.Blocks)
	for b := 0; b < mb.Blocks; b++ {
		out[b] = sim.MandelbulbBlock(mb, b, it).Encode()
	}
	return out
}
