package elastic

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// testingQuickCheck keeps the property-test plumbing in one place.
func testingQuickCheck(f interface{}) error {
	return quick.Check(f, &quick.Config{MaxCount: 60})
}

// The controller refuses a target the policy cannot decide against — the
// check behind colza-server -elastic-target 0.
func TestRejectsZeroTarget(t *testing.T) {
	members := func() []string { return []string{"a"} }
	for _, target := range []time.Duration{0, -time.Second} {
		if _, err := NewController(Config{Target: target}, Deps{Members: members}); err == nil {
			t.Fatalf("target %v accepted", target)
		}
	}
}

func TestScaleUpWhenOverTarget(t *testing.T) {
	p := newPolicy(time.Second, 8)
	if got := p.observe(2*time.Second, 2).Action; got != actScaleUp {
		t.Fatalf("got %v, want scale-up", got)
	}
}

func TestHoldInsideBand(t *testing.T) {
	p := newPolicy(time.Second, 8)
	if got := p.observe(900*time.Millisecond, 4).Action; got != actHold {
		t.Fatalf("got %v, want hold", got)
	}
}

func TestScaleDownWhenComfortablyUnder(t *testing.T) {
	p := newPolicy(time.Second, 8)
	// 0.2s on 4 servers: projected on 3 servers = 0.267s < 0.7s.
	if got := p.observe(200*time.Millisecond, 4).Action; got != actScaleDown {
		t.Fatalf("got %v, want scale-down", got)
	}
}

func TestNoScaleDownWhenProjectionWouldOvershoot(t *testing.T) {
	p := newPolicy(time.Second, 8)
	// 0.6s on 2 servers: on 1 server projected 1.2s > 0.7s low water.
	if got := p.observe(600*time.Millisecond, 2).Action; got != actHold {
		t.Fatalf("got %v, want hold", got)
	}
}

func TestRespectsBounds(t *testing.T) {
	p := newPolicy(time.Second, 3)
	if got := p.observe(5*time.Second, 3).Action; got != actHold {
		t.Fatalf("at max: got %v, want hold", got)
	}
	p2 := newPolicy(time.Second, 3)
	if got := p2.observe(time.Millisecond, 1).Action; got != actHold {
		t.Fatalf("at the one-server floor: got %v, want hold", got)
	}
}

func TestCooldownSuppressesFlapping(t *testing.T) {
	p := newPolicy(time.Second, 8)
	if got := p.observe(5*time.Second, 1).Action; got != actScaleUp {
		t.Fatalf("first: %v", got)
	}
	// The next observation is in cooldown even though still over.
	if got := p.observe(5*time.Second, 2).Action; got != actHold {
		t.Fatalf("cooldown: %v", got)
	}
	if got := p.observe(5*time.Second, 2).Action; got != actScaleUp {
		t.Fatalf("after cooldown: %v", got)
	}
}

// A growing workload (DWI-like) must drive the size up monotonically and
// keep the controlled time bounded, assuming ideal 1/n scaling.
func TestTracksGrowingWorkload(t *testing.T) {
	p := newPolicy(time.Second, 16)
	servers := 1
	maxSeen := 0.0
	for it := 0; it < 30; it++ {
		// DWI-like linear growth of the total rendering work.
		work := 0.5 + 0.45*float64(it)
		exec := work / float64(servers)
		if exec > maxSeen {
			maxSeen = exec
		}
		switch p.observe(time.Duration(exec*float64(time.Second)), servers).Action {
		case actScaleUp:
			servers++
		case actScaleDown:
			t.Fatalf("iteration %d: released a server while the workload grows", it)
		}
	}
	if servers < 10 {
		t.Fatalf("policy only reached %d servers for a ~28x workload", servers)
	}
	if maxSeen > 2.0 {
		t.Fatalf("execution time escaped to %.2fs despite autoscaling", maxSeen)
	}
}

// An -elastic daemon observes every iteration of its life: the policy
// must not keep what it observed.
func TestObserveRetainsNoHistory(t *testing.T) {
	p := newPolicy(time.Second, 8)
	const n = 1 << 17
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		p.observe(900*time.Millisecond, 4)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("%d observations left %d more bytes on the heap", n, grew)
	}
}

// A shrinking workload must eventually release servers.
func TestReleasesServersWhenWorkloadShrinks(t *testing.T) {
	p := newPolicy(time.Second, 16)
	servers := 8
	work := 0.4 // tiny work on many servers
	downs := 0
	for it := 0; it < 10; it++ {
		exec := work / float64(servers)
		if p.observe(time.Duration(exec*float64(time.Second)), servers).Action == actScaleDown {
			servers--
			downs++
		}
	}
	if downs == 0 {
		t.Fatal("never scaled down an over-provisioned staging area")
	}
	if servers < 1 {
		t.Fatal("scaled below minimum")
	}
}

func TestStartCooldownSuppresses(t *testing.T) {
	p := newPolicy(time.Second, 8)
	p.startCooldown()
	if got := p.observe(5*time.Second, 1); got.Reason != "cooldown" {
		t.Fatalf("cooldown ignored after startCooldown: %+v", got)
	}
	if got := p.observe(5*time.Second, 1).Action; got != actScaleUp {
		t.Fatalf("after cooldown: %v", got)
	}
}

func TestVerdictReasonsForBounds(t *testing.T) {
	p := newPolicy(time.Second, 3)
	if got := p.observe(5*time.Second, 3); got.Reason != "at-ceiling" {
		t.Fatalf("ceiling: %+v", got)
	}
	if got := p.observe(time.Millisecond, 1); got.Reason != "at-floor" {
		t.Fatalf("floor: %+v", got)
	}
}

// Property: for arbitrary observation streams the policy's actions, when
// applied, never push the size outside [1, ceiling].
func TestQuickBoundsRespected(t *testing.T) {
	f := func(obs []uint16) bool {
		p := newPolicy(time.Second, 6)
		servers := 3
		for _, o := range obs {
			exec := time.Duration(o) * time.Millisecond * 10
			switch p.observe(exec, servers).Action {
			case actScaleUp:
				servers++
			case actScaleDown:
				servers--
			}
			if servers < 1 || servers > 6 {
				return false
			}
		}
		return true
	}
	if err := testingQuickCheck(f); err != nil {
		t.Fatal(err)
	}
}
