package bench

import (
	"fmt"
	"math/rand"
	"time"

	"colza/internal/collectives"
	"colza/internal/core"
	"colza/internal/na"
	"colza/internal/sim"
	"colza/internal/ssg"
	"colza/internal/vstack"
)

// Fig1aDataGrowth reproduces Figure 1a: cells and file size per iteration
// of the Deep Water Impact proxy (the data-growth curve that motivates
// elasticity).
func Fig1aDataGrowth(quick bool) *Table {
	cfg := sim.DefaultDWI()
	if quick {
		cfg = sim.DWIConfig{Blocks: 16, Iterations: 12, BaseRes: 16, GrowthRes: 2}
	}
	t := &Table{
		ID:      "Fig. 1a",
		Title:   "Deep Water Impact proxy: data growth over iterations",
		Note:    "synthetic DWI stand-in (dataset not redistributable); shape: monotone growth",
		Columns: []string{"iteration", "cells", "bytes", "cells/iter1"},
	}
	rows := sim.DWIGrowth(cfg)
	base := rows[0].Cells
	if base == 0 {
		base = 1
	}
	for _, r := range rows {
		t.Add(r.Iteration, r.Cells, r.FileBytes, float64(r.Cells)/float64(base))
	}
	return t
}

// Table1PointToPoint reproduces Table I: time for 1000 send/recv
// operations per message size, for the four stacks, on the virtual Cori
// network.
func Table1PointToPoint(quick bool) *Table {
	ops := 1000
	if quick {
		ops = 200
	}
	sizes := []int{8, 128, 2 << 10, 16 << 10, 32 << 10, 512 << 10}
	stacks := []vstack.Profile{vstack.VendorMPI, vstack.OpenMPI, vstack.MoNA, vstack.NA}
	t := &Table{
		ID:      "Table I",
		Title:   fmt.Sprintf("time (ms) for %d send/recv operations", ops),
		Note:    "virtual-time protocol models on the Cori-calibrated wire; NA reported for small messages only, as in the paper",
		Columns: []string{"size", "cray-mpich", "openmpi", "mona", "na"},
	}
	for _, size := range sizes {
		row := []interface{}{sizeLabel(size)}
		for _, pr := range stacks {
			if pr.Name == "na" && size > 2<<10 {
				row = append(row, "-")
				continue
			}
			d, err := vstack.PingPong(pr, vstack.InterNode(), size, ops)
			if err != nil {
				row = append(row, "err")
				continue
			}
			scaled := d * time.Duration(1000) / time.Duration(ops)
			row = append(row, fmt.Sprintf("%.3f", float64(scaled)/float64(time.Millisecond)))
		}
		t.Add(row...)
	}
	return t
}

// Table2Reduce reproduces Table II: time for 1000 binary-xor reduce
// operations over 512 processes (32 nodes x 16 ranks).
func Table2Reduce(quick bool) *Table {
	procs, count := 512, 40
	if quick {
		procs, count = 128, 5
	}
	sizes := []int{8, 128, 2 << 10, 16 << 10, 32 << 10}
	stacks := []vstack.Profile{vstack.VendorMPI, vstack.OpenMPI, vstack.MoNA}
	t := &Table{
		ID:      "Table II",
		Title:   fmt.Sprintf("time (ms) for 1000 xor-reduce operations over %d processes (extrapolated from %d)", procs, count),
		Note:    "OpenMPI's collapse comes from its degenerate large-message collective; MoNA stays within a single-digit factor of vendor MPI",
		Columns: []string{"size", "cray-mpich", "openmpi", "mona"},
	}
	for _, size := range sizes {
		row := []interface{}{sizeLabel(size)}
		for _, pr := range stacks {
			n := count
			// The pathological flat algorithm is slow even to simulate;
			// fewer samples suffice (it is deterministic).
			if pr.Name == "openmpi" && size > pr.EagerLimit {
				n = 2
			}
			d, err := vstack.ReduceBench(pr, vstack.Table2Topology(), procs, size, n)
			if err != nil {
				row = append(row, "err")
				continue
			}
			per1000 := d * time.Duration(1000) / time.Duration(n)
			row = append(row, fmt.Sprintf("%.1f", float64(per1000)/float64(time.Millisecond)))
		}
		t.Add(row...)
	}
	return t
}

// launchCost models the time from asking the launcher for a process to
// that process starting to execute (srun dispatch, binary load, service
// init). The paper's restarts take 5-40 s; we scale 1:20 to keep the
// experiment short and report both units.
const fig4TimeScale = 20

func launchCost(rng *rand.Rand) time.Duration {
	base := 60 * time.Millisecond
	tail := time.Duration(rng.ExpFloat64() * float64(120*time.Millisecond))
	if tail > 1500*time.Millisecond {
		tail = 1500 * time.Millisecond
	}
	return base + tail
}

// Fig4Resizing reproduces Figure 4: the time to grow a staging area from
// N to N+1 servers, comparing a full restart (static) with an SSG join
// (elastic). Real SSG gossip runs; only the process-launch cost is
// modeled (scaled 1:20).
func Fig4Resizing(quick bool) *Table {
	maxN := 16
	if quick {
		maxN = 6
	}
	t := &Table{
		ID:      "Fig. 4",
		Title:   "resizing time from N to N+1 servers (seconds, scaled x20 to paper units)",
		Note:    "static = kill + relaunch everything (launch costs modeled, gossip real); elastic = launch one daemon + SSG join propagation",
		Columns: []string{"N", "static_s", "elastic_s"},
	}
	rng := rand.New(rand.NewSource(11))
	cfg := ssg.Config{GossipPeriod: 10 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20}
	for n := 1; n <= maxN; n++ {
		static, elastic := "err", "err"
		if d, err := fig4Static(rng, cfg, n); err == nil {
			static = fmt.Sprintf("%.1f", d.Seconds()*fig4TimeScale)
		}
		if d, err := timeJoin("fig4e", "el", n, 100, cfg, launchCost(rng), 30*time.Second); err == nil {
			elastic = fmt.Sprintf("%.1f", d.Seconds()*fig4TimeScale)
		}
		t.Add(n, static, elastic)
	}
	return t
}

// fig4Static times Fig. 4's static arm: kill everything, relaunch n+1
// fresh daemons in parallel (completion at the slowest launch), and wait
// for the group to re-form.
func fig4Static(rng *rand.Rand, cfg ssg.Config, n int) (time.Duration, error) {
	const teardown = 25 * time.Millisecond // kill + srun teardown, scaled
	start := time.Now()
	time.Sleep(teardown)
	var slowest time.Duration
	for i := 0; i <= n; i++ {
		if c := launchCost(rng); c > slowest {
			slowest = c
		}
	}
	time.Sleep(slowest)
	servers, err := startGroup(na.NewInprocNetwork(), "fig4", "st", n+1, 1, cfg)
	defer shutdownAll(servers)
	if err != nil {
		return 0, err
	}
	err = core.WaitMembers(servers, n+1, 30*time.Second)
	return time.Since(start), err
}

// timeJoin times one join into a running group (Fig. 4's elastic arm, A5):
// it starts servers prefix0..prefix<n-1> and waits for them to converge,
// then sleeps launch (the newcomer's modelled launch cost), starts
// prefix<n>, and waits up to timeout for every view to hold it. Server i
// gossips with SSG seed seed+i.
func timeJoin(group, prefix string, n int, seed int64, cfg ssg.Config, launch, timeout time.Duration) (time.Duration, error) {
	net := na.NewInprocNetwork()
	servers, err := startGroup(net, group, prefix, n, seed, cfg)
	defer func() { shutdownAll(servers) }()
	if err != nil {
		return 0, err
	}
	if err := core.WaitMembers(servers, n, 30*time.Second); err != nil {
		return 0, err
	}
	start := time.Now()
	time.Sleep(launch)
	s, err := startServer(net, group, prefix, n, servers[0].Addr(), seed, cfg)
	if err != nil {
		return 0, err
	}
	servers = append(servers, s)
	err = core.WaitMembers(servers, n+1, timeout)
	return time.Since(start), err
}

// startGroup starts servers prefix0..prefix<n-1> on net, the first
// creating group and the rest joining through it. On error it returns the
// servers already started.
func startGroup(net *na.InprocNetwork, group, prefix string, n int, seed int64, cfg ssg.Config) ([]*core.Server, error) {
	var servers []*core.Server
	boot := ""
	for i := 0; i < n; i++ {
		s, err := startServer(net, group, prefix, i, boot, seed, cfg)
		if err != nil {
			return servers, err
		}
		servers = append(servers, s)
		boot = servers[0].Addr()
	}
	return servers, nil
}

// startServer starts server prefix<i> of group, joining through boot
// (empty creates the group), with SSG seed seed+i.
func startServer(net *na.InprocNetwork, group, prefix string, i int, boot string, seed int64, cfg ssg.Config) (*core.Server, error) {
	scfg := core.ServerConfig{GroupName: group, Bootstrap: boot, SSG: cfg}
	scfg.SSG.Seed = seed + int64(i)
	return core.StartInprocServer(net, fmt.Sprintf("%s%d", prefix, i), scfg)
}

func shutdownAll(servers []*core.Server) {
	for _, s := range servers {
		s.Shutdown()
	}
}

// AblationA1TreeShapes compares collective tree shapes (DESIGN.md A1).
func AblationA1TreeShapes(quick bool) *Table {
	procs, count := 256, 10
	if quick {
		procs, count = 64, 4
	}
	t := &Table{
		ID:      "Ablation A1",
		Title:   fmt.Sprintf("bcast time (us/op) by tree shape, %d processes", procs),
		Columns: []string{"size", "binomial", "kary4", "flat"},
	}
	algos := []collectives.Algorithm{
		{Kind: collectives.Binomial},
		{Kind: collectives.KAry, K: 4},
		{Kind: collectives.Flat},
	}
	for _, size := range []int{8, 2 << 10, 32 << 10} {
		row := []interface{}{sizeLabel(size)}
		for _, a := range algos {
			d, err := vstack.BcastBench(vstack.MoNA, vstack.Table2Topology(), procs, size, count, a)
			if err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", float64(d/time.Duration(count))/float64(time.Microsecond)))
		}
		t.Add(row...)
	}
	return t
}

// AblationA2EagerLimit sweeps MoNA's protocol switch point (DESIGN.md
// A2): why RDMA at 4KiB beats staying eager.
func AblationA2EagerLimit(quick bool) *Table {
	ops := 400
	if quick {
		ops = 100
	}
	t := &Table{
		ID:      "Ablation A2",
		Title:   "MoNA p2p time (us/op) vs protocol switch threshold",
		Columns: []string{"size", "switch@1KiB", "switch@4KiB", "switch@64KiB", "never(eager)"},
	}
	limits := []int{1 << 10, 4 << 10, 64 << 10, 1 << 30}
	for _, size := range []int{2 << 10, 16 << 10, 128 << 10, 512 << 10} {
		row := []interface{}{sizeLabel(size)}
		for _, lim := range limits {
			pr := vstack.MoNA.WithEagerLimit(lim)
			d, err := vstack.PingPong(pr, vstack.InterNode(), size, ops)
			if err != nil {
				row = append(row, "err")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", float64(d/time.Duration(ops))/float64(time.Microsecond)))
		}
		t.Add(row...)
	}
	return t
}

// AblationA4BufferCache isolates MoNA's request/buffer caching, the
// mechanism behind the NA-vs-MoNA gap in Table I.
func AblationA4BufferCache(quick bool) *Table {
	ops := 1000
	if quick {
		ops = 200
	}
	t := &Table{
		ID:      "Ablation A4",
		Title:   "MoNA p2p time (us/op) with and without buffer caching",
		Columns: []string{"size", "cache", "no-cache", "overhead_%"},
	}
	for _, size := range []int{8, 128, 2 << 10} {
		with, err1 := vstack.PingPong(vstack.MoNA, vstack.InterNode(), size, ops)
		without, err2 := vstack.PingPong(vstack.MoNANoCache(), vstack.InterNode(), size, ops)
		if err1 != nil || err2 != nil {
			t.Add(sizeLabel(size), "err", "err", "-")
			continue
		}
		t.Add(sizeLabel(size),
			fmt.Sprintf("%.3f", float64(with/time.Duration(ops))/float64(time.Microsecond)),
			fmt.Sprintf("%.3f", float64(without/time.Duration(ops))/float64(time.Microsecond)),
			fmt.Sprintf("%.1f", 100*(float64(without)/float64(with)-1)))
	}
	return t
}

// AblationA5GossipPeriod measures join-propagation time against the SSG
// gossip period (the Sec. II-E overhead discussion).
func AblationA5GossipPeriod(quick bool) *Table {
	groupSize := 8
	if quick {
		groupSize = 4
	}
	t := &Table{
		ID:      "Ablation A5",
		Title:   fmt.Sprintf("SSG join propagation time vs gossip period (group of %d)", groupSize),
		Columns: []string{"period_ms", "propagation_ms", "periods"},
	}
	for _, period := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond} {
		cfg := ssg.Config{GossipPeriod: period, SuspectPeriods: 4}
		el, err := timeJoin("a5", "a5-", groupSize, 1, cfg, 0, 60*time.Second)
		if err != nil {
			t.Add(period.Milliseconds(), "err", "-")
			continue
		}
		t.Add(period.Milliseconds(),
			fmt.Sprintf("%.1f", float64(el)/float64(time.Millisecond)),
			fmt.Sprintf("%.1f", float64(el)/float64(period)))
	}
	return t
}

func sizeLabel(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
