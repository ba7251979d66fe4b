package elastic

import "time"

// The actions a Verdict records.
const (
	actHold      = "hold"
	actScaleUp   = "scale-up"
	actScaleDown = "scale-down"
)

// The policy's bands: it scales up when execute exceeds target*highWater,
// and down when, even with one server fewer, the projected time stays
// below target*lowWater.
const (
	highWater = 1.0
	lowWater  = 0.7
)

// cooldown is the policy's one hysteresis: an action (or startCooldown)
// holds the observation that follows it — after a resize, the join
// iteration, whose warm-up spike says nothing about the new size.
const cooldown = 2

// floor is the smallest staging area the policy scales down to: the one
// server a controller runs on.
const floor = 1

// policy is the resize rule the controller actuates, after the paper's
// discussion (IV-B): for data that grows over time, resize so that the
// analysis stays overlapped with the simulation's iteration, i.e. under
// target. It keeps no clock, only observations counted since its last
// action, so the same rule runs against live clusters and in the
// deterministic conformance suite.
type policy struct {
	target   time.Duration
	ceiling  int
	sinceAct int
}

func newPolicy(target time.Duration, ceiling int) *policy {
	return &policy{target: target, ceiling: ceiling, sinceAct: cooldown}
}

// observe records one iteration's execute time on the given staging-area
// size and returns a verdict that carries only its action and reason.
func (p *policy) observe(exec time.Duration, servers int) Verdict {
	p.sinceAct++
	if p.sinceAct < cooldown {
		return Verdict{Action: actHold, Reason: "cooldown"}
	}
	v := p.decide(exec.Seconds(), servers)
	if v.Action != actHold {
		p.sinceAct = 0
	}
	return v
}

func (p *policy) decide(exec float64, servers int) Verdict {
	target := p.target.Seconds()
	switch {
	case exec > target*highWater:
		if servers >= p.ceiling {
			return Verdict{Action: actHold, Reason: "at-ceiling"}
		}
		return Verdict{Action: actScaleUp, Reason: "over-target"}
	case servers <= floor:
		return Verdict{Action: actHold, Reason: "at-floor"}
	case exec*float64(servers)/float64(servers-1) < target*lowWater:
		// Projected on one server fewer, assuming the parallel part scales
		// with 1/servers (the pipelines are embarrassingly parallel up to
		// compositing). The policy projects from the observation in hand
		// only, so it keeps no history.
		return Verdict{Action: actScaleDown, Reason: "under-low-water"}
	}
	return Verdict{Action: actHold, Reason: "steady"}
}

// startCooldown opens a fresh cooldown as if the policy had just acted:
// the next observation is held. The controller calls it on a leadership
// takeover, so the new leader decides only on observations gathered after
// it took over.
func (p *policy) startCooldown() { p.sinceAct = 0 }
