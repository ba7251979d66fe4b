package na

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// This file implements scriptable, seedable fault plans — the deterministic
// chaos layer underneath the transports, and the one way to drop or delay
// a message or to cut a link (a Drop rule per direction). A FaultPlan carries an
// ordered list of rules that target every send, specific links, specific
// message kinds (via a pluggable classifier, e.g. the Mercury RPC name),
// and specific occurrences ("drop 5 % of everything", "drop the 3rd
// prepare", "delay the first five stage requests by 20ms"). All randomness
// comes from the plan's own seeded RNG, so a chaos run replays identically.

// Verdict is the outcome of consulting a fault plan for one send.
type Verdict struct {
	Drop  bool
	Delay time.Duration
}

// FaultRule selects a subset of sends and says what happens to them.
// Selector fields (From, To, Label) match everything when empty. Occurrence
// fields narrow which matching sends the rule fires on: Nth fires on
// exactly the Nth matching send (1-based); Count caps the total number of
// firings (0 = unlimited); Prob fires probabilistically (0 = always).
// Action fields: Drop loses the message silently, Delay postpones delivery.
type FaultRule struct {
	From  string // exact source address
	To    string // exact destination address
	Label string // classifier output, e.g. RPC name

	Nth   int     // fire only on the Nth match (1-based)
	Count int     // fire at most Count times
	Prob  float64 // fire with this probability

	Drop  bool
	Delay time.Duration
}

// ruleState pairs a rule with its occurrence counters.
type ruleState struct {
	rule    FaultRule
	matched int // sends matching the selectors
	fired   int // times the action was applied
}

// FaultPlan is a deterministic sequence of fault rules consulted on every
// send of the transport it is installed on. It is safe for concurrent use.
type FaultPlan struct {
	mu         sync.Mutex
	rng        *rand.Rand
	rules      []*ruleState
	classifier func(data []byte) string
}

// NewFaultPlan creates an empty plan whose probabilistic rules draw from a
// private RNG seeded with seed, so runs replay deterministically.
func NewFaultPlan(seed int64) *FaultPlan {
	return &FaultPlan{rng: rand.New(rand.NewSource(seed))}
}

// SetClassifier installs the function that labels message payloads for
// Label-matching rules (e.g. mercury.RPCNameOf to target RPCs by name).
// A nil classifier leaves every message unlabeled.
func (p *FaultPlan) SetClassifier(fn func(data []byte) string) *FaultPlan {
	p.mu.Lock()
	p.classifier = fn
	p.mu.Unlock()
	return p
}

// Add appends a rule and returns the plan for chaining.
func (p *FaultPlan) Add(r FaultRule) *FaultPlan {
	p.mu.Lock()
	p.rules = append(p.rules, &ruleState{rule: r})
	p.mu.Unlock()
	return p
}

// Decide consults every rule for one send and returns the combined verdict
// (any rule may drop; delays accumulate). Transports call it once per send.
func (p *FaultPlan) Decide(from, to string, data []byte) Verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	label := ""
	if p.classifier != nil {
		label = p.classifier(data)
	}
	var v Verdict
	for _, st := range p.rules {
		r := &st.rule
		if r.From != "" && r.From != from {
			continue
		}
		if r.To != "" && r.To != to {
			continue
		}
		if r.Label != "" && r.Label != label {
			continue
		}
		st.matched++
		if r.Nth > 0 && st.matched != r.Nth {
			continue
		}
		if r.Count > 0 && st.fired >= r.Count {
			continue
		}
		if r.Prob > 0 && p.rng.Float64() >= r.Prob {
			continue
		}
		st.fired++
		if r.Drop {
			v.Drop = true
		}
		v.Delay += r.Delay
	}
	return v
}

// Fired reports how many times rule i has applied its action — tests use it
// to assert a fault actually happened.
func (p *FaultPlan) Fired(i int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.rules) {
		return 0
	}
	return p.rules[i].fired
}

// String summarizes rule hit counts for chaos-run logs.
func (p *FaultPlan) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := "faultplan{"
	for i, st := range p.rules {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("[%d]%s/%s fired=%d", i, st.rule.Label, actionName(st.rule), st.fired)
	}
	return s + "}"
}

func actionName(r FaultRule) string {
	switch {
	case r.Drop && r.Delay > 0:
		return "drop+delay"
	case r.Drop:
		return "drop"
	case r.Delay > 0:
		return "delay"
	default:
		return "noop"
	}
}
