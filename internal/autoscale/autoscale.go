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
// observations (one per iteration), so the same policy runs against real
// clusters and in the deterministic conformance suite.
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

// Verdict pairs the action with the reason the policy chose it, so the
// controller can expose an explainable decision history.
type Verdict struct {
	Action Action
	// Reason is one of: "over-target", "under-low-water", "steady",
	// "cooldown", "at-ceiling", "at-floor".
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
// holds the observation that follows it — after a resize, the join
// iteration, whose warm-up spike says nothing about the new size.
const cooldown = 2

// floor is the smallest staging area the policy scales down to: the one
// server a controller runs on.
const floor = 1

// Config tunes the policy.
type Config struct {
	// Target is the desired pipeline execution time per iteration (the
	// simulation's iteration time when the goal is full overlap).
	Target time.Duration
	// Max bounds the staging-area size (default 1<<30).
	Max int
}

// Autoscaler keeps the policy state: observations since the last action.
type Autoscaler struct {
	cfg      Config
	sinceAct int
}

// New creates an autoscaler; Target must be positive.
func New(cfg Config) (*Autoscaler, error) {
	if cfg.Target <= 0 {
		return nil, fmt.Errorf("autoscale: Target must be positive")
	}
	if cfg.Max <= 0 {
		cfg.Max = 1 << 30
	}
	return &Autoscaler{cfg: cfg, sinceAct: cooldown}, nil
}

// Observe records one iteration's execute time on the given staging-area
// size and returns the verdict to apply before the next iteration.
func (a *Autoscaler) Observe(exec time.Duration, servers int) Verdict {
	a.sinceAct++
	if a.sinceAct < cooldown {
		return Verdict{Action: Hold, Reason: "cooldown"}
	}
	v := a.decide(exec.Seconds(), servers)
	if v.Action != Hold {
		a.sinceAct = 0
	}
	return v
}

func (a *Autoscaler) decide(exec float64, servers int) Verdict {
	target := a.cfg.Target.Seconds()
	switch {
	case exec > target*highWater:
		if servers >= a.cfg.Max {
			return Verdict{Action: Hold, Reason: "at-ceiling"}
		}
		return Verdict{Action: ScaleUp, Reason: "over-target"}
	case servers <= floor:
		return Verdict{Action: Hold, Reason: "at-floor"}
	case exec*float64(servers)/float64(servers-1) < target*lowWater:
		// Projected on one server fewer, assuming the parallel part scales
		// with 1/servers (the pipelines are embarrassingly parallel up to
		// compositing). The policy projects from the observation in hand
		// only, so it keeps no history.
		return Verdict{Action: ScaleDown, Reason: "under-low-water"}
	}
	return Verdict{Action: Hold, Reason: "steady"}
}

// StartCooldown opens a fresh cooldown as if the policy had just acted:
// the next observation is held. Controllers call it on a leadership
// takeover, so the new leader decides only on observations gathered after
// it took over.
func (a *Autoscaler) StartCooldown() { a.sinceAct = 0 }
