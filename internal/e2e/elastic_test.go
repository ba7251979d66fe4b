package e2e

// The live elasticity suite: the elastic controller wired through
// elastic.CoreDeps against real in-process deployments, driven by actual
// simulation loops. The stats pipeline's integer-valued run_* keys give
// exact oracle comparisons, so a run that scaled up and back down must
// reproduce a static cluster's cumulative statistics bit for bit.

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/elastic"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/ssg"
)

// slowStatsType wraps the stats pipeline with an iteration-windowed
// execute delay — the scripted "slow phase" that makes a run exceed the
// controller's latency target without perturbing the statistics (the
// run_* keys depend only on the staged data, never on timing or on how
// blocks were distributed across servers).
const slowStatsType = "e2e/slowstats"

type slowStatsConfig struct {
	Field    string `json:"field"`
	SlowFrom uint64 `json:"slow_from"`
	SlowTo   uint64 `json:"slow_to"`
	DelayMS  int    `json:"delay_ms"`
}

// slowStats delegates everything to a real StatsPipeline; the explicit
// Export/ImportState passthrough keeps it a StatefulBackend, so the
// migration and checkpoint layers treat it exactly like plain stats.
type slowStats struct {
	inner core.StatefulBackend
	cfg   slowStatsConfig
}

func (s *slowStats) Activate(ctx core.IterationContext) error { return s.inner.Activate(ctx) }
func (s *slowStats) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	return s.inner.Stage(it, meta, data)
}
func (s *slowStats) Execute(it uint64) (core.ExecResult, error) {
	if s.cfg.DelayMS > 0 && it >= s.cfg.SlowFrom && it <= s.cfg.SlowTo {
		time.Sleep(time.Duration(s.cfg.DelayMS) * time.Millisecond)
	}
	return s.inner.Execute(it)
}
func (s *slowStats) Deactivate(it uint64) error    { return s.inner.Deactivate(it) }
func (s *slowStats) Destroy() error                { return s.inner.Destroy() }
func (s *slowStats) ExportState() ([]byte, error)  { return s.inner.ExportState() }
func (s *slowStats) ImportState(data []byte) error { return s.inner.ImportState(data) }

var slowStatsOnce sync.Once

func registerSlowStats() {
	slowStatsOnce.Do(func() {
		core.RegisterPipelineType(slowStatsType, func(cfg json.RawMessage) (core.Backend, error) {
			var c slowStatsConfig
			if len(cfg) > 0 {
				if err := json.Unmarshal(cfg, &c); err != nil {
					return nil, err
				}
			}
			factory, ok := core.LookupPipelineType(catalyst.StatsPipelineType)
			if !ok {
				return nil, fmt.Errorf("e2e: %s not registered", catalyst.StatsPipelineType)
			}
			raw, err := json.Marshal(catalyst.StatsConfig{Field: c.Field})
			if err != nil {
				return nil, err
			}
			inner, err := factory(raw)
			if err != nil {
				return nil, err
			}
			return &slowStats{inner: inner.(core.StatefulBackend), cfg: c}, nil
		})
	})
}

// statsTotals is the analytic oracle for statsBlock data: the cumulative
// count and sum after iters iterations of blocks blocks.
func statsTotals(iters, blocks int) (count, sum float64) {
	for it := 1; it <= iters; it++ {
		for b := 0; b < blocks; b++ {
			for i := 0; i < 8; i++ {
				count++
				sum += float64(1000*it + 100*b + i)
			}
		}
	}
	return count, sum
}

// elasticArm is one live deployment the controller grows and shrinks: an
// in-proc fabric whose launcher starts real servers that bootstrap from
// the first one, exactly like the process scale-up path.
type elasticArm struct {
	t      *testing.T
	net    *na.InprocNetwork
	prefix string
	ssgCfg ssg.Config
	client *core.Client
	admin  *core.AdminClient
	reg    *obs.Registry

	mu      sync.Mutex
	servers []*core.Server
	nextID  int
}

func newElasticArm(t *testing.T, prefix string) *elasticArm {
	t.Helper()
	a := &elasticArm{
		t: t, net: na.NewInprocNetwork(), prefix: prefix,
		ssgCfg: ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20},
		reg:    obs.NewRegistry(),
	}
	t.Cleanup(a.shutdownAll)
	if err := a.launch(); err != nil {
		t.Fatal(err)
	}
	ep, err := a.net.Listen(prefix + "-client")
	if err != nil {
		t.Fatal(err)
	}
	mi := margo.NewInstance(ep)
	t.Cleanup(mi.Finalize)
	a.client = core.NewClient(mi)
	a.admin = core.NewAdminClient(mi)
	return a
}

// launch starts one more server — the arm's elastic.Launcher. It
// bootstraps from the first server that is still alive and in the group,
// so relaunches keep working after earlier members crashed or left.
func (a *elasticArm) launch() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	cfg := core.ServerConfig{SSG: a.ssgCfg, StateReplicas: 1}
	cfg.SSG.Seed = int64(a.nextID + 1)
	listening := a.net.Endpoints()
	for _, s := range a.servers {
		if slices.Contains(listening, s.Addr()) && !s.Provider.Leaving() {
			cfg.Bootstrap = s.Addr()
			break
		}
	}
	s, err := core.StartInprocServer(a.net, fmt.Sprintf("%s%d", a.prefix, a.nextID), cfg)
	if err != nil {
		return err
	}
	a.nextID++
	a.servers = append(a.servers, s)
	return nil
}

func (a *elasticArm) s0() *core.Server {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.servers[0]
}

func (a *elasticArm) server(i int) *core.Server {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.servers[i]
}

func (a *elasticArm) size() int { return len(a.s0().Group.Members()) }

func (a *elasticArm) shutdownAll() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, s := range a.servers {
		s.Shutdown()
	}
}

// startController wires a controller to the arm's first server through
// CoreDeps and that server's execute hook — the exact production wiring
// of cmd/colza-server — and starts its loop.
func (a *elasticArm) startController(cfg elastic.Config) *elastic.Controller {
	a.t.Helper()
	ctl, err := elastic.NewController(cfg,
		elastic.CoreDeps(a.s0().Addr(), a.s0().Group.Members, a.admin, elastic.LauncherFunc(a.launch), a.reg))
	if err != nil {
		a.t.Fatal(err)
	}
	a.s0().Provider.SetElastic(ctl)
	if err := ctl.Start(); err != nil {
		a.t.Fatal(err)
	}
	a.t.Cleanup(ctl.Stop)
	return ctl
}

func (a *elasticArm) counter(name string) int64 { return a.reg.Counter(name).Value() }

// assertLaunchConservation holds the controller's books to the invariant
// launch_attempts == launch_errors + scaleups.
func assertLaunchConservation(t *testing.T, reg *obs.Registry) {
	t.Helper()
	att := reg.Counter("elastic.launch_attempts").Value()
	errs := reg.Counter("elastic.launch_errors").Value()
	ups := reg.Counter("elastic.scaleups").Value()
	if att != errs+ups {
		t.Errorf("launch conservation violated: attempts=%d != errors=%d + scaleups=%d", att, errs, ups)
	}
}

var elasticCtlConfig = elastic.Config{
	Target: 50 * time.Millisecond, Ceiling: 2,
	LaunchRetries: 2, JoinTimeout: 20 * time.Second,
}

// TestElasticScaleUpThenDownMatchesOracle is the live closed loop end to
// end: a scripted slow phase pushes execute past the target, the
// controller senses it in the leader's execute handler and launches a real
// second server (provisioned with the pipeline via pipeline_defs); when
// the load drops, it releases that server through the admin leave RPC —
// whose graceful migration carries the stateful pipeline's moments back.
// The run's cumulative statistics must equal a static one-server oracle's
// exactly.
func TestElasticScaleUpThenDownMatchesOracle(t *testing.T) {
	registerSlowStats()
	const blocks = 4
	const slowIters = 8
	// The fast phase runs until the controller has released the extra
	// server. It is bounded by time, not by an iteration count: how many
	// fast iterations fit before the controller's next verdict depends on
	// how quick an iteration is, which is not what this test is about.
	const fastPhase = 20 * time.Second

	arm := newElasticArm(t, "elo")
	pcfg, _ := json.Marshal(slowStatsConfig{Field: "f", SlowFrom: 1, SlowTo: slowIters, DelayMS: 150})
	if err := arm.admin.CreatePipeline(arm.s0().Addr(), "stats", slowStatsType, pcfg); err != nil {
		t.Fatal(err)
	}
	ctl := arm.startController(elasticCtlConfig)

	h := arm.client.Handle("stats", arm.s0().Addr())
	h.SetTimeout(10 * time.Second)

	// Slow phase: the controller must scale up within these iterations.
	upAt := 0
	it := 1
	for ; it <= slowIters; it++ {
		runStatsIteration(t, h, uint64(it), blocks)
		if upAt == 0 && arm.size() == 2 {
			upAt = it
		}
	}
	if upAt == 0 {
		t.Fatalf("controller never scaled up within %d slow iterations; status: %+v", slowIters, ctl.Status())
	}
	t.Logf("scaled up to 2 servers during iteration %d", upAt)

	// Fast phase: the load drops below the low-water band and the
	// controller must release the extra server again.
	downAt := 0
	for deadline := time.Now().Add(fastPhase); downAt == 0 && time.Now().Before(deadline); it++ {
		runStatsIteration(t, h, uint64(it), blocks)
		if arm.size() == 1 {
			downAt = it
		}
	}
	if downAt == 0 {
		t.Fatalf("controller never scaled back down within %v (%d iterations); status: %+v", fastPhase, it-1, ctl.Status())
	}
	t.Logf("scaled down to 1 server during iteration %d", downAt)
	total := it - 1
	ctl.Stop()
	probe := probeRunStats(t, h, uint64(total+1))

	// Oracle arm: a static one-server cluster runs the identical schedule
	// (delays off — they never affect the data).
	onet := na.NewInprocNetwork()
	osrv, err := core.StartInprocServer(onet, "elo-oracle0", core.ServerConfig{
		SSG:           ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20, Seed: 1},
		StateReplicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(osrv.Shutdown)
	oep, _ := onet.Listen("elo-oracle-client")
	omi := margo.NewInstance(oep)
	t.Cleanup(omi.Finalize)
	oadmin := core.NewAdminClient(omi)
	ocfg, _ := json.Marshal(slowStatsConfig{Field: "f"})
	if err := oadmin.CreatePipeline(osrv.Addr(), "stats", slowStatsType, ocfg); err != nil {
		t.Fatal(err)
	}
	oh := core.NewClient(omi).Handle("stats", osrv.Addr())
	oh.SetTimeout(10 * time.Second)
	for oit := 1; oit <= total; oit++ {
		runStatsIteration(t, oh, uint64(oit), blocks)
	}
	oracle := probeRunStats(t, oh, uint64(total+1))

	// Strict equality on every cumulative key, and against the analytic
	// totals so both arms cannot be wrong together.
	for _, key := range []string{"run_count", "run_sum", "run_mean", "run_min", "run_max"} {
		if probe[key] != oracle[key] {
			t.Errorf("%s: elastic arm %v != oracle %v", key, probe[key], oracle[key])
		}
	}
	wantCount, wantSum := statsTotals(total, blocks)
	if oracle["run_count"] != wantCount || oracle["run_sum"] != wantSum {
		t.Errorf("oracle run_count=%v run_sum=%v, want %v and %v",
			oracle["run_count"], oracle["run_sum"], wantCount, wantSum)
	}

	// The controller's books: at least one scale-up and one scale-down,
	// no failed launches or leaves, and launch conservation.
	if ups := arm.counter("elastic.scaleups"); ups < 1 {
		t.Errorf("elastic.scaleups = %d, want >= 1", ups)
	}
	if downs := arm.counter("elastic.scaledowns"); downs < 1 {
		t.Errorf("elastic.scaledowns = %d, want >= 1", downs)
	}
	for _, name := range []string{"elastic.launch_errors", "elastic.leave_errors", "elastic.provision_errors"} {
		if v := arm.counter(name); v != 0 {
			t.Errorf("%s = %d, want 0", name, v)
		}
	}
	assertLaunchConservation(t, arm.reg)
	// The released server migrated its stateful share without loss.
	if v := arm.server(1).Obs.Snapshot().Counters["core.migrate.errors"]; v != 0 {
		t.Errorf("core.migrate.errors on the released server = %d, want 0", v)
	}
}

// TestElasticCrashedNewcomerCheckpointRecovery drives the checkpoint
// recovery path through the controller: the launched newcomer crashes
// abruptly after folding iterations into its stateful share; the
// survivor's replica re-seeds the moments at the next activate, and the
// controller — still over target — relaunches. The analytic totals prove
// no iteration was lost.
func TestElasticCrashedNewcomerCheckpointRecovery(t *testing.T) {
	registerSlowStats()
	const blocks = 4
	const totalIters = 12

	arm := newElasticArm(t, "elc")
	pcfg, _ := json.Marshal(slowStatsConfig{Field: "f", SlowFrom: 1, SlowTo: totalIters, DelayMS: 150})
	if err := arm.admin.CreatePipeline(arm.s0().Addr(), "stats", slowStatsType, pcfg); err != nil {
		t.Fatal(err)
	}
	ctl := arm.startController(elasticCtlConfig)

	h := arm.client.Handle("stats", arm.s0().Addr())
	h.SetTimeout(10 * time.Second)

	upAt, crashedAt := 0, 0
	for it := 1; it <= totalIters; it++ {
		runStatsIteration(t, h, uint64(it), blocks)
		if upAt == 0 && arm.size() == 2 {
			upAt = it
		}
		if upAt != 0 && crashedAt == 0 && it >= upAt+2 {
			// The newcomer dies without any announcement, after two full
			// iterations folded into its running moments (each deactivate
			// shipped a checkpoint to its ring successor).
			arm.server(1).Shutdown()
			if err := core.WaitMembers([]*core.Server{arm.s0()}, 1, 20*time.Second); err != nil {
				t.Fatal(err)
			}
			crashedAt = it
		}
	}
	if crashedAt == 0 {
		t.Fatalf("newcomer never launched and crashed (upAt=%d); status: %+v", upAt, ctl.Status())
	}
	t.Logf("scaled up at iteration %d, crashed the newcomer after iteration %d", upAt, crashedAt)
	ctl.Stop()
	probe := probeRunStats(t, h, totalIters+1)

	wantCount, wantSum := statsTotals(totalIters, blocks)
	if probe["run_count"] != wantCount || probe["run_sum"] != wantSum {
		t.Errorf("run_count=%v run_sum=%v, want %v and %v (crashed newcomer's share lost?)",
			probe["run_count"], probe["run_sum"], wantCount, wantSum)
	}
	if got := arm.s0().Obs.Snapshot().Counters["core.state.recover.count{pipeline=stats}"]; got < 1 {
		t.Errorf("core.state.recover.count{pipeline=stats} = %d, want >= 1", got)
	}
	if ups := arm.counter("elastic.scaleups"); ups < 1 {
		t.Errorf("elastic.scaleups = %d, want >= 1", ups)
	}
	assertLaunchConservation(t, arm.reg)
}

// TestElasticLaunchFailureRetriesLive injects a daemon that comes up and
// dies before ever joining the group: the controller must burn the join
// timeout, count a launch error, retry with backoff, and succeed on the
// second attempt against the real cluster.
func TestElasticLaunchFailureRetriesLive(t *testing.T) {
	arm := newElasticArm(t, "elf")
	attempt := 0
	launcher := elastic.LauncherFunc(func() error {
		attempt++
		if attempt == 1 {
			// A server that starts into its own group — it never appears in
			// the membership — and crashes immediately.
			rogue, err := core.StartInprocServer(arm.net, "elf-rogue", core.ServerConfig{GroupName: "rogue", SSG: arm.ssgCfg})
			if err != nil {
				return err
			}
			rogue.Shutdown()
			return nil
		}
		return arm.launch()
	})
	ctl, err := elastic.NewController(elastic.Config{
		Target: 50 * time.Millisecond, Ceiling: 2,
		LaunchRetries: 2, LaunchBackoff: 20 * time.Millisecond, JoinTimeout: 400 * time.Millisecond,
	}, elastic.CoreDeps(arm.s0().Addr(), arm.s0().Group.Members, arm.admin, launcher, arm.reg))
	if err != nil {
		t.Fatal(err)
	}

	// One synthetic over-target execute against the real actuators.
	v := ctl.Tick(500*time.Millisecond, 1)
	if v.Action != "scale-up" || !v.Actuated {
		t.Fatalf("verdict: %+v", v)
	}
	// The actuated scale-up is synchronous: waitJoin already saw the
	// newcomer in the leader's membership.
	if n := arm.size(); n != 2 {
		t.Fatalf("membership after actuated scale-up: %d, want 2", n)
	}
	att := arm.counter("elastic.launch_attempts")
	errs := arm.counter("elastic.launch_errors")
	ups := arm.counter("elastic.scaleups")
	if att != 2 || errs != 1 || ups != 1 {
		t.Fatalf("attempts=%d errors=%d scaleups=%d, want 2/1/1", att, errs, ups)
	}
	assertLaunchConservation(t, arm.reg)
}

// TestElasticLeaderCrashHandsOff runs controllers on both servers of a
// live pair: the follower holds with not-leader verdicts while the leader
// is alive, then the leader crashes; the follower's controller observes
// itself at the head of the shrunken membership, holds its first
// observation as a takeover cooldown, and actuates a real scale-up on the
// second.
func TestElasticLeaderCrashHandsOff(t *testing.T) {
	arm := newElasticArm(t, "elh")
	if err := arm.launch(); err != nil { // elh1, the follower
		t.Fatal(err)
	}
	if err := core.WaitMembers([]*core.Server{arm.s0(), arm.server(1)}, 2, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	follower := arm.server(1)

	ctl, err := elastic.NewController(elastic.Config{
		Target: 50 * time.Millisecond, Ceiling: 3,
		LaunchRetries: 2, JoinTimeout: 20 * time.Second,
	}, elastic.CoreDeps(follower.Addr(), follower.Group.Members, arm.admin, elastic.LauncherFunc(arm.launch), arm.reg))
	if err != nil {
		t.Fatal(err)
	}

	const over = 500 * time.Millisecond
	if v := ctl.Tick(over, 2); v.Action != "hold" || v.Reason != "not-leader" {
		t.Fatalf("follower verdict with leader alive: %+v", v)
	}

	// The leader crashes; SWIM evicts it from the follower's view.
	arm.s0().Shutdown()
	if err := core.WaitMembers([]*core.Server{follower}, 1, 20*time.Second); err != nil {
		t.Fatalf("follower never evicted the crashed leader: %v", err)
	}

	// First tick after the crash: takeover, and a fresh cooldown guards it.
	if v := ctl.Tick(over, 1); v.Action != "hold" || v.Reason != "cooldown" {
		t.Fatalf("first post-takeover verdict: %+v", v)
	}
	if tk := arm.counter("elastic.takeovers"); tk != 1 {
		t.Fatalf("elastic.takeovers = %d, want 1", tk)
	}
	if ups := arm.counter("elastic.scaleups"); ups != 0 {
		t.Fatalf("scale-up actuated inside the takeover cooldown (scaleups=%d)", ups)
	}

	// The second tick after the takeover actuates for real.
	v := ctl.Tick(over, 1)
	if v.Action != "scale-up" || !v.Actuated {
		t.Fatalf("post-cooldown verdict: %+v", v)
	}
	if n := len(follower.Group.Members()); n != 2 {
		t.Fatalf("membership after handoff scale-up: %d, want 2", n)
	}
	if ups := arm.counter("elastic.scaleups"); ups != 1 {
		t.Fatalf("elastic.scaleups = %d, want 1", ups)
	}
	assertLaunchConservation(t, arm.reg)
}
