// Package autoscale implements the paper's future work (2): "enable
// automatic resizing as a response to performance constraints or
// optimization targets". The discussion section (IV-B) motivates the
// policy: for applications whose data complexity grows over time (Deep
// Water Impact), elasticity should keep the analysis time overlapped with
// the simulation's iteration time.
//
// The Autoscaler is pure decision logic: the caller feeds it the measured
// pipeline execution time after each iteration and applies the returned
// action (launching a daemon or sending an admin leave request). Keeping
// the actuator outside matches the paper's observation that scale-up and
// scale-down travel different paths (resource manager vs admin RPC).
//
// Time never comes from the wall clock directly: Config.Clock injects the
// time source, so the same policy runs against real clusters and against
// the dessim virtual clock in the deterministic conformance suite.
package autoscale

import (
	"fmt"
	"time"
)

// Action is the autoscaler's verdict for one observation.
type Action int

// Possible verdicts.
const (
	// Hold keeps the staging area as is.
	Hold Action = iota
	// ScaleUp asks for one more server.
	ScaleUp
	// ScaleDown asks one server to leave.
	ScaleDown
)

func (a Action) String() string {
	switch a {
	case ScaleUp:
		return "scale-up"
	case ScaleDown:
		return "scale-down"
	default:
		return "hold"
	}
}

// Clock is an injectable monotonic time source. The zero duration is the
// process (or simulation) start; only differences matter.
type Clock func() time.Duration

// Sample is one iteration's observation: the measured execute time and
// the staging-area size it ran on.
type Sample struct {
	Exec    time.Duration
	Servers int
}

// Verdict pairs the action with the reason the policy chose it, so the
// controller can expose an explainable decision history.
type Verdict struct {
	Action Action
	// Reason is one of: "over-target", "under-low-water", "steady",
	// "cooldown", "cooldown-window", "confirming-up", "confirming-down",
	// "at-ceiling", "at-floor", "idle".
	Reason string
}

// The policy's bands: it scales up when execute exceeds Target*highWater,
// and down when, even with one server fewer, the projected time stays
// below Target*lowWater.
const (
	highWater = 1.0
	lowWater  = 0.7
)

// Config tunes the policy.
type Config struct {
	// Target is the desired pipeline execution time per iteration (the
	// simulation's iteration time when the goal is full overlap).
	Target time.Duration
	// Min and Max bound the staging-area size (defaults 1 and 1<<30).
	Min, Max int
	// Cooldown is how many observations to hold after an action, giving
	// the new configuration time to show its effect — and skipping the
	// join iteration's warm-up spike (default 2).
	Cooldown int
	// CooldownWindow additionally holds for a wall (or virtual) time span
	// after an action, measured on Clock. Zero disables the window; it
	// matters when observations arrive much faster than actuation settles
	// (a launched daemon takes real time to join). Requires Clock.
	CooldownWindow time.Duration
	// Confirm is how many consecutive observations must agree before the
	// policy acts (default 1 = act on the first). Values above 1 add
	// hysteresis: a single latency spike or dip cannot resize the group.
	// Observations landing inside a cooldown do not count toward a streak.
	Confirm int
	// Clock drives CooldownWindow. Nil means a frozen clock at zero
	// (windows then never block, matching the pre-clock behavior of the
	// package).
	Clock Clock
}

func (c Config) withDefaults() Config {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 1 << 30
	}
	if c.Cooldown < 1 {
		c.Cooldown = 2
	}
	if c.Confirm < 1 {
		c.Confirm = 1
	}
	if c.Clock == nil {
		c.Clock = func() time.Duration { return 0 }
	}
	return c
}

// Autoscaler keeps the policy state.
type Autoscaler struct {
	cfg         Config
	sinceAct    int
	actedAt     time.Duration
	hasActed    bool
	overStreak  int
	underStreak int
}

// New creates an autoscaler; Target must be positive.
func New(cfg Config) (*Autoscaler, error) {
	if cfg.Target <= 0 {
		return nil, fmt.Errorf("autoscale: Target must be positive")
	}
	return &Autoscaler{cfg: cfg.withDefaults(), sinceAct: 1 << 30}, nil
}

// Observe records one iteration's execute time on the given staging-area
// size and returns the action to take before the next iteration.
func (a *Autoscaler) Observe(execTime time.Duration, servers int) Action {
	return a.step(Sample{Exec: execTime, Servers: servers}).Action
}

// ObserveBatch feeds a batch of samples (one metrics poll may cover
// several completed iterations) and returns the batch's decisive verdict:
// the action taken if any sample triggered one — at most one can, because
// an action opens a cooldown — otherwise the last hold. An empty batch is
// an idle hold and records nothing.
func (a *Autoscaler) ObserveBatch(batch []Sample) Verdict {
	if len(batch) == 0 {
		return Verdict{Action: Hold, Reason: "idle"}
	}
	out := Verdict{Action: Hold, Reason: "idle"}
	for _, s := range batch {
		if v := a.step(s); v.Action != Hold || out.Action == Hold {
			out = v
		}
	}
	return out
}

func (a *Autoscaler) step(s Sample) Verdict {
	now := a.cfg.Clock()
	a.sinceAct++
	if a.sinceAct < a.cfg.Cooldown {
		a.overStreak, a.underStreak = 0, 0
		return Verdict{Action: Hold, Reason: "cooldown"}
	}
	if a.windowRemaining(now) > 0 {
		a.overStreak, a.underStreak = 0, 0
		return Verdict{Action: Hold, Reason: "cooldown-window"}
	}
	target := a.cfg.Target.Seconds()
	secs := s.Exec.Seconds()
	over := secs > target*highWater
	under := !over && projected(s, s.Servers-1) < target*lowWater
	if over {
		a.overStreak++
	} else {
		a.overStreak = 0
	}
	if under {
		a.underStreak++
	} else {
		a.underStreak = 0
	}
	switch {
	case over && s.Servers >= a.cfg.Max:
		return Verdict{Action: Hold, Reason: "at-ceiling"}
	case over && a.overStreak < a.cfg.Confirm:
		return Verdict{Action: Hold, Reason: "confirming-up"}
	case over:
		a.act(now)
		return Verdict{Action: ScaleUp, Reason: "over-target"}
	case under && s.Servers <= a.cfg.Min:
		return Verdict{Action: Hold, Reason: "at-floor"}
	case under && a.underStreak < a.cfg.Confirm:
		return Verdict{Action: Hold, Reason: "confirming-down"}
	case under:
		a.act(now)
		return Verdict{Action: ScaleDown, Reason: "under-low-water"}
	}
	return Verdict{Action: Hold, Reason: "steady"}
}

func (a *Autoscaler) act(now time.Duration) {
	a.sinceAct = 0
	a.actedAt = now
	a.hasActed = true
	a.overStreak, a.underStreak = 0, 0
}

// StartCooldown opens a fresh cooldown (count and window) as if the
// policy had just acted. Controllers call it when external events — a
// leadership takeover, a failed actuation settling — should suppress
// decisions until fresh post-event observations accumulate.
func (a *Autoscaler) StartCooldown() {
	a.act(a.cfg.Clock())
}

// CooldownRemaining reports how much of the cooldown window is left on
// the policy clock (zero when no window is configured or it elapsed).
func (a *Autoscaler) CooldownRemaining() time.Duration {
	return a.windowRemaining(a.cfg.Clock())
}

func (a *Autoscaler) windowRemaining(now time.Duration) time.Duration {
	if !a.hasActed || a.cfg.CooldownWindow <= 0 {
		return 0
	}
	if left := a.actedAt + a.cfg.CooldownWindow - now; left > 0 {
		return left
	}
	return 0
}

// projected estimates the execution time of observation s on n servers,
// assuming the parallel part scales with 1/servers (the pipelines are
// embarrassingly parallel up to compositing). The policy projects from
// the observation in hand only, so it keeps no history.
func projected(s Sample, n int) float64 {
	if n < 1 {
		return 0
	}
	return s.Exec.Seconds() * float64(s.Servers) / float64(n)
}
