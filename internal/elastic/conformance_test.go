package elastic

// The elasticity conformance suite: the controller state machine driven
// over the dessim virtual clock with scripted latency traces. Everything
// is synchronous and virtual — launches join instantly, a leave takes
// effect at once or after a scripted virtual delay, backoffs and view
// waits advance simulated time only — so the verdict sequences are exact,
// byte-identical across runs and seeds, and the suite holds under -race
// with zero real-time sleeps.

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"colza/internal/autoscale"
	"colza/internal/dessim"
	"colza/internal/obs"
)

// fakeCluster is a virtual membership the controller actuates against.
type fakeCluster struct {
	members []string
	next    int
	// leaveDelay keeps a member asked to leave in the view for that long on
	// the harness clock, as a server defers a leave until its active
	// iteration ends; departAt holds each pending departure.
	leaveDelay time.Duration
	now        func() time.Duration
	departAt   map[string]time.Duration
	leaves     []string // every leave RPC, in order
}

func newFakeCluster(names ...string) *fakeCluster {
	fc := &fakeCluster{members: append([]string(nil), names...), next: len(names)}
	sort.Strings(fc.members)
	return fc
}

func (f *fakeCluster) list() []string {
	for addr, at := range f.departAt {
		if f.now() >= at {
			delete(f.departAt, addr)
			f.remove(addr)
		}
	}
	return append([]string(nil), f.members...)
}

// leave is the admin leave RPC: like a server, a member asked again while
// its departure is pending answers without error.
func (f *fakeCluster) leave(addr string) error {
	f.leaves = append(f.leaves, addr)
	if f.leaveDelay == 0 {
		return f.remove(addr)
	}
	if _, pending := f.departAt[addr]; !pending {
		f.departAt[addr] = f.now() + f.leaveDelay
	}
	return nil
}

func (f *fakeCluster) add() string {
	f.next++
	name := fmt.Sprintf("m%02d", f.next)
	f.members = append(f.members, name)
	sort.Strings(f.members)
	return name
}

func (f *fakeCluster) remove(addr string) error {
	for i, m := range f.members {
		if m == addr {
			f.members = append(f.members[:i], f.members[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("no member %q", addr)
}

// confHarness binds a controller to a fake cluster on a dessim clock.
type confHarness struct {
	t    *testing.T
	sim  *dessim.Sim
	fc   *fakeCluster
	reg  *obs.Registry
	c    *Controller
	proc *dessim.Proc
}

func newConfHarness(t *testing.T, seed int64, cfg Config, self string, fc *fakeCluster, launch func() error) *confHarness {
	t.Helper()
	h := &confHarness{t: t, sim: dessim.New(seed), fc: fc, reg: obs.NewRegistry()}
	if launch == nil {
		launch = func() error { fc.add(); return nil }
	}
	cfg.Clock = h.sim.Now
	cfg.Sleep = func(d time.Duration) { h.proc.Sleep(d) }
	fc.now, fc.departAt = h.sim.Now, map[string]time.Duration{}
	c, err := NewController(cfg, Deps{
		Self:     self,
		Members:  fc.list,
		Leave:    fc.leave,
		Launcher: LauncherFunc(launch),
		Registry: h.reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.c = c
	return h
}

// drive ticks the controller once per interval with the scripted execute
// times, one iteration per tick, and returns one formatted line per
// verdict.
func (h *confHarness) drive(interval time.Duration, trace []time.Duration) []string {
	h.t.Helper()
	polls := make([][]time.Duration, len(trace))
	for i, exec := range trace {
		polls[i] = []time.Duration{exec}
	}
	return h.drivePolls(interval, polls)
}

// drivePolls is drive with a batch per tick: each poll lists the execute
// times of the iterations completed since the previous one.
func (h *confHarness) drivePolls(interval time.Duration, polls [][]time.Duration) []string {
	h.t.Helper()
	var lines []string
	h.sim.Spawn("driver", func(p *dessim.Proc) {
		h.proc = p
		for _, poll := range polls {
			p.Sleep(interval)
			batch := make([]autoscale.Sample, len(poll))
			for i, exec := range poll {
				batch[i].Exec = exec
			}
			v := h.c.Tick(batch)
			lines = append(lines, fmt.Sprintf("at=%04dms %s reason=%s servers=%d actuated=%v",
				v.AtMS, v.Action, v.Reason, v.Servers, v.Actuated))
		}
	})
	if err := h.sim.Run(); err != nil {
		h.t.Fatalf("sim: %v", err)
	}
	return lines
}

func (h *confHarness) counter(name string) int64 { return h.reg.Counter(name).Value() }

func assertLines(t *testing.T, got, want []string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("verdict sequence mismatch:\ngot:\n  %s\nwant:\n  %s",
			strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// A linear latency ramp must walk the group to the ceiling through the
// exact hold/scale-up cadence the cooldown dictates: each action holds the
// one observation after it.
func TestConformanceRampScalesToCeiling(t *testing.T) {
	ms := time.Millisecond
	var trace []time.Duration
	for i := 0; i < 12; i++ {
		trace = append(trace, time.Duration(20+15*i)*ms)
	}
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3, LaunchRetries: 1, JoinTimeout: time.Second,
	}, "m00", newFakeCluster("m00"), nil)
	got := h.drive(100*ms, trace)
	assertLines(t, got, []string{
		"at=0100ms hold reason=at-floor servers=1 actuated=false",
		"at=0200ms hold reason=at-floor servers=1 actuated=false",
		"at=0300ms hold reason=at-floor servers=1 actuated=false",
		"at=0400ms hold reason=at-floor servers=1 actuated=false",
		"at=0500ms hold reason=at-floor servers=1 actuated=false",
		"at=0600ms hold reason=at-floor servers=1 actuated=false",
		"at=0700ms scale-up reason=over-target servers=1 actuated=true",
		"at=0800ms hold reason=cooldown servers=2 actuated=false",
		"at=0900ms scale-up reason=over-target servers=2 actuated=true",
		"at=1000ms hold reason=cooldown servers=3 actuated=false",
		"at=1100ms hold reason=at-ceiling servers=3 actuated=false",
		"at=1200ms hold reason=at-ceiling servers=3 actuated=false",
	})
	if n := len(h.fc.list()); n != 3 {
		t.Fatalf("cluster ended at %d servers, want 3", n)
	}
	if up, att, errs := h.counter("elastic.scaleups"), h.counter("elastic.launch_attempts"), h.counter("elastic.launch_errors"); up != 2 || att != 2 || errs != 0 {
		t.Fatalf("counters: scaleups=%d attempts=%d errors=%d", up, att, errs)
	}
	if holds := h.counter("elastic.holds"); holds != 10 {
		t.Fatalf("holds=%d, want 10", holds)
	}
}

// A single latency spike is acted on at once, and only once: the policy
// holds the observation after the action, and the load that follows the
// spike does not project under the low-water mark on one server fewer, so
// the group keeps the server it gained instead of flapping back.
func TestConformanceSpikeScalesUpOnce(t *testing.T) {
	ms := time.Millisecond
	trace := []time.Duration{50 * ms, 50 * ms, 50 * ms, 50 * ms, 50 * ms,
		500 * ms, 50 * ms, 50 * ms, 50 * ms, 50 * ms}
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 4,
	}, "m00", newFakeCluster("m00", "m01"), nil)
	got := h.drive(100*ms, trace)
	want := []string{
		"at=0100ms hold reason=steady servers=2 actuated=false",
		"at=0200ms hold reason=steady servers=2 actuated=false",
		"at=0300ms hold reason=steady servers=2 actuated=false",
		"at=0400ms hold reason=steady servers=2 actuated=false",
		"at=0500ms hold reason=steady servers=2 actuated=false",
		"at=0600ms scale-up reason=over-target servers=2 actuated=true",
		"at=0700ms hold reason=cooldown servers=3 actuated=false",
		"at=0800ms hold reason=steady servers=3 actuated=false",
		"at=0900ms hold reason=steady servers=3 actuated=false",
		"at=1000ms hold reason=steady servers=3 actuated=false",
	}
	assertLines(t, got, want)
	if up, down := h.counter("elastic.scaleups"), h.counter("elastic.scaledowns"); up != 1 || down != 0 {
		t.Fatalf("spike: up=%d down=%d, want 1 and 0", up, down)
	}
}

// A load that alternates across both bands, whatever the group size, is
// followed — the policy keeps no history to smooth it — but never faster
// than the cooldown allows: every action holds the next observation, so
// actions are at least two observations apart, and the ceiling still
// clamps.
func TestConformanceOscillationActsEveryOtherSample(t *testing.T) {
	ms := time.Millisecond
	var trace []time.Duration
	for i := 0; i < 6; i++ {
		trace = append(trace, 120*ms, 40*ms)
	}
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 4,
	}, "m00", newFakeCluster("m00", "m01"), nil)
	got := h.drive(100*ms, trace)
	assertLines(t, got, []string{
		"at=0100ms scale-up reason=over-target servers=2 actuated=true",
		"at=0200ms hold reason=cooldown servers=3 actuated=false",
		"at=0300ms scale-up reason=over-target servers=3 actuated=true",
		"at=0400ms hold reason=cooldown servers=4 actuated=false",
		"at=0500ms hold reason=at-ceiling servers=4 actuated=false",
		"at=0600ms scale-down reason=under-low-water servers=4 actuated=true",
		"at=0700ms hold reason=cooldown servers=3 actuated=false",
		"at=0800ms scale-down reason=under-low-water servers=3 actuated=true",
		"at=0900ms hold reason=cooldown servers=2 actuated=false",
		"at=1000ms hold reason=steady servers=2 actuated=false",
		"at=1100ms scale-up reason=over-target servers=2 actuated=true",
		"at=1200ms hold reason=cooldown servers=3 actuated=false",
	})
	if up, down := h.counter("elastic.scaleups"), h.counter("elastic.scaledowns"); up != 3 || down != 2 {
		t.Fatalf("oscillation: up=%d down=%d, want 3 and 2", up, down)
	}
}

// The hard floor and ceiling clamp sustained pressure in both directions,
// and scale-down never victimizes the leader.
func TestConformanceFloorCeilingClamps(t *testing.T) {
	ms := time.Millisecond
	trace := []time.Duration{500 * ms, 500 * ms, 10 * ms, 10 * ms, 10 * ms, 10 * ms, 10 * ms, 10 * ms}
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3,
	}, "m00", newFakeCluster("m00", "m01", "m02"), nil)
	got := h.drive(100*ms, trace)
	assertLines(t, got, []string{
		"at=0100ms hold reason=at-ceiling servers=3 actuated=false",
		"at=0200ms hold reason=at-ceiling servers=3 actuated=false",
		"at=0300ms scale-down reason=under-low-water servers=3 actuated=true",
		"at=0400ms hold reason=cooldown servers=2 actuated=false",
		"at=0500ms scale-down reason=under-low-water servers=2 actuated=true",
		"at=0600ms hold reason=cooldown servers=1 actuated=false",
		"at=0700ms hold reason=at-floor servers=1 actuated=false",
		"at=0800ms hold reason=at-floor servers=1 actuated=false",
	})
	if members := h.fc.list(); len(members) != 1 || members[0] != "m00" {
		t.Fatalf("scale-down victimized the leader: %v", members)
	}
	if down := h.counter("elastic.scaledowns"); down != 2 {
		t.Fatalf("scaledowns=%d, want 2", down)
	}
}

// A noisy trace must be reproducible: the same seed yields byte-identical
// verdict logs, for several seeds.
func TestConformanceNoiseByteIdentical(t *testing.T) {
	ms := time.Millisecond
	run := func(seed int64) []string {
		fc := newFakeCluster("m00")
		h := newConfHarness(t, seed, Config{
			Target: 100 * ms, Floor: 1, Ceiling: 4,
		}, "m00", fc, nil)
		rng := h.sim.Rand()
		var trace []time.Duration
		for i := 0; i < 20; i++ {
			trace = append(trace, time.Duration(30+rng.Intn(140))*ms)
		}
		return h.drive(100*ms, trace)
	}
	for _, seed := range []int64{1, 2, 3} {
		a, b := run(seed), run(seed)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Fatalf("seed %d: two runs diverged:\n%s\n--- vs ---\n%s",
				seed, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
		if len(a) != 20 {
			t.Fatalf("seed %d: %d verdicts, want 20", seed, len(a))
		}
	}
}

// A launcher that always errors must burn exactly LaunchRetries attempts
// with exponential backoff on the virtual clock, and the conservation
// invariant launch_attempts == launch_errors + scaleups must hold.
func TestConformanceLaunchFailureRetries(t *testing.T) {
	ms := time.Millisecond
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3,
		LaunchRetries: 3, LaunchBackoff: 50 * ms, JoinTimeout: time.Second,
	}, "m00", newFakeCluster("m00"),
		func() error { return errors.New("injected launch failure") })
	got := h.drive(100*ms, []time.Duration{500 * ms})
	assertLines(t, got, []string{
		"at=0100ms scale-up reason=over-target; launch-failed servers=1 actuated=false",
	})
	// Interval 100ms plus two backoffs (50ms, 100ms) — all virtual.
	if now := h.sim.Now(); now != 250*ms {
		t.Fatalf("virtual clock at %v, want 250ms", now)
	}
	att, errs, up := h.counter("elastic.launch_attempts"), h.counter("elastic.launch_errors"), h.counter("elastic.scaleups")
	if att != 3 || errs != 3 || up != 0 {
		t.Fatalf("attempts=%d errors=%d scaleups=%d", att, errs, up)
	}
	if att != errs+up {
		t.Fatalf("conservation violated: %d != %d + %d", att, errs, up)
	}
}

// A daemon that launches but crashes before joining must be detected by
// the join timeout — on the virtual clock — and counted as a launch
// error.
func TestConformanceCrashBeforeJoinTimesOut(t *testing.T) {
	ms := time.Millisecond
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3,
		LaunchRetries: 2, LaunchBackoff: 50 * ms, JoinTimeout: 500 * ms,
	}, "m00", newFakeCluster("m00"),
		func() error { return nil }) // "launched", but never joins
	got := h.drive(100*ms, []time.Duration{500 * ms})
	assertLines(t, got, []string{
		"at=0100ms scale-up reason=over-target; launch-failed servers=1 actuated=false",
	})
	// Interval + two join timeouts + one backoff, all virtual.
	if now := h.sim.Now(); now != (100+500+50+500)*ms {
		t.Fatalf("virtual clock at %v, want 1150ms", now)
	}
	att, errs, up := h.counter("elastic.launch_attempts"), h.counter("elastic.launch_errors"), h.counter("elastic.scaleups")
	if att != 2 || errs != 2 || up != 0 || att != errs+up {
		t.Fatalf("attempts=%d errors=%d scaleups=%d", att, errs, up)
	}
}

// When the leader dies, the next member's controller must take over,
// hold its first observation as a takeover cooldown, and only then
// actuate on its own observations.
func TestConformanceLeaderHandoff(t *testing.T) {
	ms := time.Millisecond
	fc := newFakeCluster("m00", "m01")
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 3,
	}, "m01", fc, nil)
	var lines []string
	h.sim.Spawn("driver", func(p *dessim.Proc) {
		h.proc = p
		tick := func(exec time.Duration) {
			p.Sleep(100 * ms)
			v := h.c.Tick([]autoscale.Sample{{Exec: exec}})
			lines = append(lines, fmt.Sprintf("at=%04dms %s reason=%s servers=%d actuated=%v",
				v.AtMS, v.Action, v.Reason, v.Servers, v.Actuated))
		}
		tick(500 * ms)
		tick(500 * ms)
		if err := fc.remove("m00"); err != nil { // the leader crashes
			t.Error(err)
		}
		tick(500 * ms)
		tick(500 * ms)
		tick(500 * ms)
	})
	if err := h.sim.Run(); err != nil {
		t.Fatal(err)
	}
	assertLines(t, lines, []string{
		"at=0100ms hold reason=not-leader servers=2 actuated=false",
		"at=0200ms hold reason=not-leader servers=2 actuated=false",
		"at=0300ms hold reason=cooldown servers=1 actuated=false",
		"at=0400ms scale-up reason=over-target servers=1 actuated=true",
		"at=0500ms hold reason=cooldown servers=2 actuated=false",
	})
	if tk := h.counter("elastic.takeovers"); tk != 1 {
		t.Fatalf("takeovers=%d, want 1", tk)
	}
	if up := h.counter("elastic.scaleups"); up != 1 {
		t.Fatalf("scaleups=%d, want 1", up)
	}
	st := h.c.Status()
	if !st.Leader || st.Self != "m01" {
		t.Fatalf("status after takeover: %+v", st)
	}
	if st.Counters["elastic.takeovers"] != 1 {
		t.Fatalf("status counters: %v", st.Counters)
	}
	if len(st.Verdicts) != 5 {
		t.Fatalf("status verdicts: %d", len(st.Verdicts))
	}
}

// A leave takes effect only when the victim's active iteration ends, so
// the fake keeps it in the view for 2.5s — 25 ticks, longer than any
// iteration-counted hold could cover. The scale-down must wait for the
// departure inside its own Tick: one leave RPC, one counted scale-down,
// and no second request to the same member or to another one while the
// first is still in the view.
func TestConformanceDelayedLeaveReleasesOneMember(t *testing.T) {
	ms := time.Millisecond
	fc := newFakeCluster("m00", "m01", "m02")
	fc.leaveDelay = 2500 * ms
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 4, JoinTimeout: 5 * time.Second,
	}, "m00", fc, nil)
	trace := make([]time.Duration, 30)
	for i := range trace {
		trace[i] = 40 * ms
	}
	got := h.drive(100*ms, trace)
	want := []string{
		"at=0100ms scale-down reason=under-low-water servers=3 actuated=true",
		"at=2700ms hold reason=cooldown servers=2 actuated=false",
	}
	for at := 2800; len(want) < len(trace); at += 100 {
		want = append(want, fmt.Sprintf("at=%04dms hold reason=steady servers=2 actuated=false", at))
	}
	assertLines(t, got, want)
	if len(fc.leaves) != 1 || fc.leaves[0] != "m02" {
		t.Fatalf("leave RPCs %v, want exactly one, to m02", fc.leaves)
	}
	if down, errs := h.counter("elastic.scaledowns"), h.counter("elastic.leave_errors"); down != 1 || errs != 0 {
		t.Fatalf("scaledowns=%d leave_errors=%d, want 1 and 0", down, errs)
	}
}

// A poll covers every iteration completed since the previous one, and the
// poll after an actuation also covers the iterations that ran while it
// was in flight, relabelled with the new size. The cooldown holds that
// whole batch, so neither a scale-up nor a delayed leave is followed by a
// second action on data measured before it took effect.
func TestConformanceBatchedPollActsOnce(t *testing.T) {
	ms := time.Millisecond
	three := func(exec time.Duration) []time.Duration { return []time.Duration{exec, exec, exec} }

	up := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 4,
	}, "m00", newFakeCluster("m00"), nil)
	got := up.drivePolls(100*ms, [][]time.Duration{three(500 * ms), three(500 * ms), three(60 * ms)})
	assertLines(t, got, []string{
		"at=0100ms scale-up reason=over-target servers=1 actuated=true",
		"at=0200ms hold reason=cooldown servers=2 actuated=false",
		"at=0300ms hold reason=steady servers=2 actuated=false",
	})
	if n := up.counter("elastic.scaleups"); n != 1 {
		t.Fatalf("scaleups=%d, want 1", n)
	}

	fc := newFakeCluster("m00", "m01", "m02")
	fc.leaveDelay = 250 * ms
	down := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 4, JoinTimeout: 5 * time.Second,
	}, "m00", fc, nil)
	// The second poll's 20ms iterations ran on three servers while m02 was
	// leaving; on two they would project under the low-water mark.
	got = down.drivePolls(100*ms, [][]time.Duration{three(20 * ms), three(20 * ms), three(40 * ms)})
	assertLines(t, got, []string{
		"at=0100ms scale-down reason=under-low-water servers=3 actuated=true",
		"at=0500ms hold reason=cooldown servers=2 actuated=false",
		"at=0600ms hold reason=steady servers=2 actuated=false",
	})
	if len(fc.leaves) != 1 || fc.leaves[0] != "m02" {
		t.Fatalf("leave RPCs %v, want exactly one, to m02", fc.leaves)
	}
	if n := down.counter("elastic.scaledowns"); n != 1 {
		t.Fatalf("scaledowns=%d, want 1", n)
	}
}

// A leave that never takes effect within JoinTimeout is a failed
// actuation: the verdict says so and elastic.leave_errors counts it. A
// leave RPC the victim refuses is the same failure, without the wait.
func TestConformanceLeaveNeverSettles(t *testing.T) {
	ms := time.Millisecond
	fc := newFakeCluster("m00", "m01")
	fc.leaveDelay = time.Hour
	h := newConfHarness(t, 1, Config{
		Target: 100 * ms, Floor: 1, Ceiling: 4, JoinTimeout: 500 * ms,
	}, "m00", fc, nil)
	got := h.drive(100*ms, []time.Duration{10 * ms})
	assertLines(t, got, []string{
		"at=0100ms scale-down reason=under-low-water; leave-failed servers=2 actuated=false",
	})
	if now := h.sim.Now(); now != 600*ms {
		t.Fatalf("virtual clock at %v, want 600ms (one tick plus the view wait)", now)
	}

	refusing := newConfHarness(t, 1, Config{Target: 100 * ms}, "m00", newFakeCluster("m00", "m01"), nil)
	refusing.c.deps.Leave = func(string) error { return errors.New("injected refusal") }
	got = refusing.drive(100*ms, []time.Duration{10 * ms})
	assertLines(t, got, []string{
		"at=0100ms scale-down reason=under-low-water; leave-failed servers=2 actuated=false",
	})
	for _, hh := range []*confHarness{h, refusing} {
		if down, errs := hh.counter("elastic.scaledowns"), hh.counter("elastic.leave_errors"); down != 0 || errs != 1 {
			t.Fatalf("scaledowns=%d leave_errors=%d, want 0 and 1", down, errs)
		}
	}
}
