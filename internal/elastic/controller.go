// Package elastic closes the loop the paper leaves as future work (IV-B):
// it turns the pure autoscale policy into a live controller that senses
// per-iteration execute latencies through the admin metrics RPCs, feeds
// them to autoscale.Autoscaler, and actuates the verdicts against a real
// staging area — scale-up by launching a new colza-server daemon through
// a pluggable Launcher, scale-down through the existing admin leave RPC.
//
// The controller runs embedded in every -elastic server, but only the
// SWIM leader — the lexicographically smallest live member — actuates.
// When the leader dies, the next member's controller observes itself at
// the head of the sorted membership and takes over, opening a fresh
// cooldown so decisions resume only on post-takeover observations.
//
// Both actuations are synchronous: a Tick returns only once the view shows
// the joiner, or no longer shows the member asked to leave. The policy's
// one-observation cooldown therefore never has to cover an actuation that
// is still in flight.
//
// All time flows through an injectable clock and sleep, so the
// conformance suite drives the whole state machine on the dessim virtual
// clock with zero real-time sleeps.
package elastic

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"colza/internal/autoscale"
	"colza/internal/obs"
)

// Config tunes the controller.
type Config struct {
	// Target is the desired per-iteration execute time (required).
	Target time.Duration
	// Floor and Ceiling bound the group size (defaults 1 and 8).
	Floor, Ceiling int
	// Poll is the sensing loop period (default 250ms).
	Poll time.Duration
	// LaunchRetries bounds the launch attempts per scale-up verdict
	// (default 3); LaunchBackoff is the first retry delay, doubled per
	// attempt (default 100ms); JoinTimeout bounds how long the view may
	// take to settle after an actuation — a launched daemon to appear in
	// it, or a released one to leave it (default 10s).
	LaunchRetries int
	LaunchBackoff time.Duration
	JoinTimeout   time.Duration
	// HistoryCap bounds the retained verdict ring (default 128).
	HistoryCap int
	// Clock and Sleep inject the time source; nil means wall time. They
	// must agree (sleeping advances the clock).
	Clock func() time.Duration
	Sleep func(time.Duration)
}

func (c Config) withDefaults() Config {
	if c.Floor < 1 {
		c.Floor = 1
	}
	if c.Ceiling <= 0 {
		c.Ceiling = 8
	}
	if c.Poll <= 0 {
		c.Poll = 250 * time.Millisecond
	}
	if c.LaunchRetries < 1 {
		c.LaunchRetries = 3
	}
	if c.LaunchBackoff <= 0 {
		c.LaunchBackoff = 100 * time.Millisecond
	}
	if c.JoinTimeout <= 0 {
		c.JoinTimeout = 10 * time.Second
	}
	if c.HistoryCap < 1 {
		c.HistoryCap = 128
	}
	if c.Clock == nil {
		start := time.Now()
		c.Clock = func() time.Duration { return time.Since(start) }
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return c
}

// Deps is the controller's actuation and sensing surface, injected so
// tests can swap a fake cluster (and the conformance suite a virtual
// one) for the live admin RPC plane.
type Deps struct {
	// Self is the hosting server's RPC address; the controller actuates
	// only while Self heads the sorted membership. Empty means an
	// external controller that is always the leader.
	Self string
	// Members returns the sorted live membership (required).
	Members func() []string
	// Snapshot fetches one member's metrics registry (admin
	// metrics_json); required for Start's sensing loop, optional when
	// the caller drives Tick directly.
	Snapshot func(addr string) (obs.Snapshot, error)
	// Leave asks a member to exit (admin leave RPC).
	Leave func(addr string) error
	// Launcher starts one new server daemon.
	Launcher Launcher
	// Provision runs after a launched daemon joined, with its address —
	// the hook that replicates pipeline definitions onto it. Optional.
	Provision func(addr string) error
	// Registry receives the elastic.* counters and gauges (default
	// obs.Default()).
	Registry *obs.Registry
}

// Verdict is one recorded control decision.
type Verdict struct {
	Seq      int     `json:"seq"`
	AtMS     int64   `json:"at_ms"`
	Action   string  `json:"action"`
	Reason   string  `json:"reason"`
	Servers  int     `json:"servers"`
	ExecMS   float64 `json:"exec_ms"`
	Actuated bool    `json:"actuated"`
}

// Status is the document `colza-ctl elastic status` renders.
type Status struct {
	Self     string           `json:"self"`
	Leader   bool             `json:"leader"`
	Running  bool             `json:"running"`
	Members  []string         `json:"members"`
	Floor    int              `json:"floor"`
	Ceiling  int              `json:"ceiling"`
	TargetMS float64          `json:"target_ms"`
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
	Verdicts []Verdict        `json:"verdicts"`
}

// Controller is the closed-loop scaling controller.
type Controller struct {
	cfg  Config
	deps Deps
	reg  *obs.Registry
	src  *metricsSource

	scaleups, scaledowns       *obs.Counter
	launchAttempts, launchErrs *obs.Counter
	leaveErrs, provisionErrs   *obs.Counter
	holds, takeovers, senseErr *obs.Counter
	gLeader, gServers          *obs.Gauge

	mu          sync.Mutex
	as          *autoscale.Autoscaler
	verdicts    []Verdict
	seq         int
	leaderKnown bool
	wasLeader   bool
	running     bool
	stop        chan struct{}
	done        chan struct{}
}

// NewController validates the dependencies and builds the controller.
// Every elastic.* counter is pre-touched so a clean metrics dump proves
// the absence of failures, not the absence of instrumentation.
func NewController(cfg Config, deps Deps) (*Controller, error) {
	if deps.Members == nil {
		return nil, errors.New("elastic: Deps.Members is required")
	}
	cfg = cfg.withDefaults()
	if deps.Registry == nil {
		deps.Registry = obs.Default()
	}
	if deps.Leave == nil {
		deps.Leave = func(string) error { return errors.New("elastic: no leave actuator") }
	}
	if deps.Launcher == nil {
		deps.Launcher = LauncherFunc(func() error { return errors.New("elastic: no launcher") })
	}
	as, err := autoscale.New(autoscale.Config{Target: cfg.Target, Min: cfg.Floor, Max: cfg.Ceiling})
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, deps: deps, reg: deps.Registry, as: as}
	c.src = newMetricsSource(deps.Snapshot)
	c.scaleups = c.reg.Counter("elastic.scaleups")
	c.scaledowns = c.reg.Counter("elastic.scaledowns")
	c.launchAttempts = c.reg.Counter("elastic.launch_attempts")
	c.launchErrs = c.reg.Counter("elastic.launch_errors")
	c.leaveErrs = c.reg.Counter("elastic.leave_errors")
	c.provisionErrs = c.reg.Counter("elastic.provision_errors")
	c.holds = c.reg.Counter("elastic.holds")
	c.takeovers = c.reg.Counter("elastic.takeovers")
	c.senseErr = c.reg.Counter("elastic.sense_errors")
	c.gLeader = c.reg.Gauge("elastic.leader")
	c.gServers = c.reg.Gauge("elastic.servers")
	return c, nil
}

// Tick runs one control round over a batch of samples (one per completed
// iteration since the last round; Sample.Servers is overwritten with the
// live membership size). It evaluates leadership, feeds the policy, and
// actuates the verdict synchronously. The sensing loop calls it every
// Poll; the conformance suite calls it directly.
func (c *Controller) Tick(batch []autoscale.Sample) Verdict {
	members := c.deps.Members()
	n := len(members)
	now := c.cfg.Clock()

	c.mu.Lock()
	leader := c.evalLeadershipLocked(members)
	c.gServers.Set(int64(n))
	if !leader {
		v := c.recordLocked(now, autoscale.Hold.String(), "not-leader", n, batch, false)
		c.mu.Unlock()
		c.holds.Inc()
		return v
	}
	if len(batch) == 0 {
		// No iterations completed since the last poll: nothing to decide,
		// nothing recorded (the ring holds decisions, not idle polls).
		c.mu.Unlock()
		return Verdict{Action: autoscale.Hold.String(), Reason: "idle", Servers: n, AtMS: now.Milliseconds()}
	}
	for i := range batch {
		batch[i].Servers = n
	}
	pv := c.as.ObserveBatch(batch)
	c.mu.Unlock()

	actuated := false
	reason := pv.Reason
	switch pv.Action {
	case autoscale.ScaleUp:
		if actuated = c.scaleUp(members); actuated {
			c.scaleups.Inc()
		} else {
			reason += "; launch-failed"
		}
	case autoscale.ScaleDown:
		victim := scaleDownVictim(members, c.deps.Self)
		if victim == "" {
			reason += "; no-victim"
		} else if actuated = c.scaleDown(victim); actuated {
			c.scaledowns.Inc()
		} else {
			c.leaveErrs.Inc()
			reason += "; leave-failed"
		}
	default:
		c.holds.Inc()
	}

	c.mu.Lock()
	v := c.recordLocked(now, pv.Action.String(), reason, n, batch, actuated)
	c.mu.Unlock()
	return v
}

// evalLeadershipLocked decides whether this controller actuates and
// counts leadership takeovers: acquiring the lead after the previous
// leader died opens a fresh cooldown, so the new leader decides only on
// observations it gathered itself.
func (c *Controller) evalLeadershipLocked(members []string) bool {
	leader := c.deps.Self == "" || (len(members) > 0 && members[0] == c.deps.Self)
	if !c.leaderKnown {
		c.leaderKnown = true
	} else if leader && !c.wasLeader {
		c.takeovers.Inc()
		c.as.StartCooldown()
	}
	c.wasLeader = leader
	if leader {
		c.gLeader.Set(1)
	} else {
		c.gLeader.Set(0)
	}
	return leader
}

func (c *Controller) recordLocked(now time.Duration, action, reason string, servers int, batch []autoscale.Sample, actuated bool) Verdict {
	v := Verdict{
		Seq:      c.seq,
		AtMS:     now.Milliseconds(),
		Action:   action,
		Reason:   reason,
		Servers:  servers,
		Actuated: actuated,
	}
	if len(batch) > 0 {
		v.ExecMS = float64(batch[len(batch)-1].Exec) / float64(time.Millisecond)
	}
	c.seq++
	c.verdicts = append(c.verdicts, v)
	if len(c.verdicts) > c.cfg.HistoryCap {
		c.verdicts = c.verdicts[len(c.verdicts)-c.cfg.HistoryCap:]
	}
	return v
}

// scaleUp launches one daemon with bounded retries and exponential
// backoff, waiting after each launch for a new member to join. Every
// attempt increments elastic.launch_attempts; every failure — a launch
// error or a daemon that never joined (crashed before joining, or join
// timeout) — increments elastic.launch_errors, so
// launch_attempts == launch_errors + elastic.scaleups holds invariantly.
func (c *Controller) scaleUp(members []string) bool {
	prior := make(map[string]bool, len(members))
	for _, m := range members {
		prior[m] = true
	}
	backoff := c.cfg.LaunchBackoff
	for attempt := 1; attempt <= c.cfg.LaunchRetries; attempt++ {
		if attempt > 1 {
			c.cfg.Sleep(backoff)
			backoff *= 2
		}
		c.launchAttempts.Inc()
		if err := c.deps.Launcher.Launch(); err != nil {
			c.launchErrs.Inc()
			continue
		}
		var addr string
		if c.waitView(func(members []string) bool {
			for _, m := range members {
				if !prior[m] {
					addr = m
					return true
				}
			}
			return false
		}) {
			if c.deps.Provision != nil {
				if err := c.deps.Provision(addr); err != nil {
					c.provisionErrs.Inc()
				}
			}
			return true
		}
		c.launchErrs.Inc()
	}
	return false
}

// scaleDown asks victim to leave and waits until the view no longer shows
// it. A server defers a leave until its active iteration ends, so the
// request returns before the departure; waiting for it keeps the next
// Tick from counting the same member again and asking it (or another) to
// leave. False means the RPC failed or the view never settled.
func (c *Controller) scaleDown(victim string) bool {
	if err := c.deps.Leave(victim); err != nil {
		return false
	}
	return c.waitView(func(members []string) bool { return !slices.Contains(members, victim) })
}

// waitView polls the membership until settled accepts it, up to
// JoinTimeout on the controller clock, and reports whether it did.
func (c *Controller) waitView(settled func(members []string) bool) bool {
	deadline := c.cfg.Clock() + c.cfg.JoinTimeout
	quantum := min(max(c.cfg.JoinTimeout/50, time.Millisecond), 100*time.Millisecond)
	for !settled(c.deps.Members()) {
		if c.cfg.Clock() >= deadline {
			return false
		}
		c.cfg.Sleep(quantum)
	}
	return true
}

// scaleDownVictim picks the member to release: the last of the sorted
// membership that is neither the leader slot nor this server. Empty when
// no such member exists.
func scaleDownVictim(members []string, self string) string {
	for i := len(members) - 1; i > 0; i-- {
		if members[i] != self {
			return members[i]
		}
	}
	return ""
}

// Start launches the sensing loop: poll each member's metrics, derive
// per-iteration execute samples, Tick. Safe to call once; Stop reverses.
func (c *Controller) Start() error {
	if c.deps.Snapshot == nil {
		return errors.New("elastic: Deps.Snapshot is required for the sensing loop")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return errors.New("elastic: controller already running")
	}
	c.running = true
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.run(c.stop, c.done)
	return nil
}

func (c *Controller) run(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(c.cfg.Poll)
	defer ticker.Stop()
	for {
		batch, errs := c.src.Poll(c.deps.Members())
		if errs > 0 {
			c.senseErr.Add(int64(errs))
		}
		c.Tick(batch)
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
	}
}

// Stop halts the sensing loop and waits for it to exit, so a stopped
// controller leaks no goroutine.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.running = false
	stop, done := c.stop, c.done
	c.mu.Unlock()
	close(stop)
	<-done
}

// Status assembles the live status document.
func (c *Controller) Status() Status {
	members := c.deps.Members()
	c.mu.Lock()
	st := Status{
		Self:     c.deps.Self,
		Leader:   c.deps.Self == "" || (len(members) > 0 && members[0] == c.deps.Self),
		Running:  c.running,
		Members:  members,
		Floor:    c.cfg.Floor,
		Ceiling:  c.cfg.Ceiling,
		TargetMS: float64(c.cfg.Target) / float64(time.Millisecond),
		Verdicts: append([]Verdict(nil), c.verdicts...),
	}
	c.mu.Unlock()
	snap := c.reg.Snapshot()
	st.Counters = map[string]int64{}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "elastic.") {
			st.Counters[name] = v
		}
	}
	st.Gauges = map[string]int64{}
	for name, g := range snap.Gauges {
		if strings.HasPrefix(name, "elastic.") {
			st.Gauges[name] = g.Value
		}
	}
	return st
}

// StatusJSON serves Status as JSON — the payload of the elastic_status
// admin RPC (core.Provider.SetElasticStatus).
func (c *Controller) StatusJSON() ([]byte, error) {
	return json.Marshal(c.Status())
}

// WriteStatus renders a status document the way `colza-ctl elastic
// status` prints it.
func WriteStatus(w io.Writer, st Status) {
	fmt.Fprintf(w, "self    %s\n", st.Self)
	fmt.Fprintf(w, "leader  %v  running %v\n", st.Leader, st.Running)
	fmt.Fprintf(w, "members %d  floor %d  ceiling %d  target %.1fms\n",
		len(st.Members), st.Floor, st.Ceiling, st.TargetMS)
	names := make([]string, 0, len(st.Counters))
	for name := range st.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "counter %s %d\n", name, st.Counters[name])
	}
	names = names[:0]
	for name := range st.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "gauge %s %d\n", name, st.Gauges[name])
	}
	for _, v := range st.Verdicts {
		fmt.Fprintf(w, "verdict %3d at=%dms %s (%s) servers=%d exec=%.1fms actuated=%v\n",
			v.Seq, v.AtMS, v.Action, v.Reason, v.Servers, v.ExecMS, v.Actuated)
	}
}
