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
// The policy keeps no clock: its one hysteresis is counted in
// observations (one per metrics poll), so the same policy runs against
// real clusters and in the deterministic conformance suite.
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
	// "cooldown", "at-ceiling", "at-floor", "idle".
	Reason string
}

// The policy's bands: it scales up when execute exceeds Target*highWater,
// and down when, even with one server fewer, the projected time stays
// below Target*lowWater.
const (
	highWater = 1.0
	lowWater  = 0.7
)

// cooldown is the policy's one hysteresis: an action (or StartCooldown)
// holds the observation that follows it. An observation is one batch — a
// metrics poll covers every iteration completed since the last one, so
// the batch after an action holds the iterations that ran while it was
// actuated and the join iteration, whose warm-up spike says nothing about
// the new size.
const cooldown = 2

// Config tunes the policy.
type Config struct {
	// Target is the desired pipeline execution time per iteration (the
	// simulation's iteration time when the goal is full overlap).
	Target time.Duration
	// Min and Max bound the staging-area size (defaults 1 and 1<<30).
	Min, Max int
}

// Autoscaler keeps the policy state: observations (batches) since the last
// action.
type Autoscaler struct {
	cfg      Config
	sinceAct int
}

// New creates an autoscaler; Target must be positive.
func New(cfg Config) (*Autoscaler, error) {
	if cfg.Target <= 0 {
		return nil, fmt.Errorf("autoscale: Target must be positive")
	}
	if cfg.Min < 1 {
		cfg.Min = 1
	}
	if cfg.Max <= 0 {
		cfg.Max = 1 << 30
	}
	return &Autoscaler{cfg: cfg, sinceAct: cooldown}, nil
}

// Observe records one iteration's execute time on the given staging-area
// size as an observation of its own and returns the action to take before
// the next iteration.
func (a *Autoscaler) Observe(execTime time.Duration, servers int) Action {
	return a.ObserveBatch([]Sample{{Exec: execTime, Servers: servers}}).Action
}

// ObserveBatch feeds one observation: the samples of every iteration one
// metrics poll covers. During a cooldown the whole batch is held;
// otherwise the first sample that triggers an action decides and the rest
// are dropped, so a batch yields at most one action. Without an action the
// verdict is the last sample's hold. An empty batch is an idle hold and
// does not count as an observation.
func (a *Autoscaler) ObserveBatch(batch []Sample) Verdict {
	if len(batch) == 0 {
		return Verdict{Action: Hold, Reason: "idle"}
	}
	a.sinceAct++
	if a.sinceAct < cooldown {
		return Verdict{Action: Hold, Reason: "cooldown"}
	}
	var v Verdict
	for _, s := range batch {
		if v = a.decide(s); v.Action != Hold {
			a.sinceAct = 0
			break
		}
	}
	return v
}

func (a *Autoscaler) decide(s Sample) Verdict {
	target := a.cfg.Target.Seconds()
	switch {
	case s.Exec.Seconds() > target*highWater:
		if s.Servers >= a.cfg.Max {
			return Verdict{Action: Hold, Reason: "at-ceiling"}
		}
		return Verdict{Action: ScaleUp, Reason: "over-target"}
	case projected(s, s.Servers-1) < target*lowWater:
		if s.Servers <= a.cfg.Min {
			return Verdict{Action: Hold, Reason: "at-floor"}
		}
		return Verdict{Action: ScaleDown, Reason: "under-low-water"}
	}
	return Verdict{Action: Hold, Reason: "steady"}
}

// StartCooldown opens a fresh cooldown as if the policy had just acted:
// the next non-empty batch is held. Controllers call it on a leadership
// takeover, so the new leader decides only on observations gathered after
// it took over.
func (a *Autoscaler) StartCooldown() { a.sinceAct = 0 }

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
