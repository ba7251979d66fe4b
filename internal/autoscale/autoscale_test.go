package autoscale

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

func mustNew(t *testing.T, cfg Config) *Autoscaler {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRejectsZeroTarget(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero target accepted")
	}
}

func TestScaleUpWhenOverTarget(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	if got := a.Observe(2*time.Second, 2).Action; got != ScaleUp {
		t.Fatalf("got %v, want scale-up", got)
	}
}

func TestHoldInsideBand(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	if got := a.Observe(900*time.Millisecond, 4).Action; got != Hold {
		t.Fatalf("got %v, want hold", got)
	}
}

func TestScaleDownWhenComfortablyUnder(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	// 0.2s on 4 servers: projected on 3 servers = 0.267s < 0.7s.
	if got := a.Observe(200*time.Millisecond, 4).Action; got != ScaleDown {
		t.Fatalf("got %v, want scale-down", got)
	}
}

func TestNoScaleDownWhenProjectionWouldOvershoot(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	// 0.6s on 2 servers: on 1 server projected 1.2s > 0.7s low water.
	if got := a.Observe(600*time.Millisecond, 2).Action; got != Hold {
		t.Fatalf("got %v, want hold", got)
	}
}

func TestRespectsBounds(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 3})
	if got := a.Observe(5*time.Second, 3).Action; got != Hold {
		t.Fatalf("at max: got %v, want hold", got)
	}
	a2 := mustNew(t, Config{Target: time.Second, Max: 3})
	if got := a2.Observe(time.Millisecond, 1).Action; got != Hold {
		t.Fatalf("at the one-server floor: got %v, want hold", got)
	}
}

func TestCooldownSuppressesFlapping(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	if got := a.Observe(5*time.Second, 1).Action; got != ScaleUp {
		t.Fatalf("first: %v", got)
	}
	// The next observation is in cooldown even though still over.
	if got := a.Observe(5*time.Second, 2).Action; got != Hold {
		t.Fatalf("cooldown: %v", got)
	}
	if got := a.Observe(5*time.Second, 2).Action; got != ScaleUp {
		t.Fatalf("after cooldown: %v", got)
	}
}

// A growing workload (DWI-like) must drive the size up monotonically and
// keep the controlled time bounded, assuming ideal 1/n scaling.
func TestTracksGrowingWorkload(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 16})
	servers := 1
	maxSeen := 0.0
	for it := 0; it < 30; it++ {
		// DWI-like linear growth of the total rendering work.
		work := 0.5 + 0.45*float64(it)
		exec := work / float64(servers)
		if exec > maxSeen {
			maxSeen = exec
		}
		switch a.Observe(time.Duration(exec*float64(time.Second)), servers).Action {
		case ScaleUp:
			servers++
		case ScaleDown:
			t.Fatalf("iteration %d: released a server while the workload grows", it)
		}
	}
	if servers < 10 {
		t.Fatalf("autoscaler only reached %d servers for a ~28x workload", servers)
	}
	if maxSeen > 2.0 {
		t.Fatalf("execution time escaped to %.2fs despite autoscaling", maxSeen)
	}
}

// An -elastic daemon observes every iteration of its life: the policy
// must not keep what it observed.
func TestObserveRetainsNoHistory(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	const n = 1 << 17
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		a.Observe(900*time.Millisecond, 4)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(a)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 1<<20 {
		t.Fatalf("%d observations left %d more bytes on the heap", n, grew)
	}
}

// A shrinking workload must eventually release servers.
func TestReleasesServersWhenWorkloadShrinks(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 16})
	servers := 8
	work := 0.4 // tiny work on many servers
	downs := 0
	for it := 0; it < 10; it++ {
		exec := work / float64(servers)
		if a.Observe(time.Duration(exec*float64(time.Second)), servers).Action == ScaleDown {
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

func TestActionStrings(t *testing.T) {
	if Hold.String() != "hold" || ScaleUp.String() != "scale-up" || ScaleDown.String() != "scale-down" {
		t.Fatal("action strings wrong")
	}
}

func TestStartCooldownSuppresses(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	a.StartCooldown()
	if got := a.Observe(5*time.Second, 1); got.Reason != "cooldown" {
		t.Fatalf("cooldown ignored after StartCooldown: %+v", got)
	}
	if got := a.Observe(5*time.Second, 1).Action; got != ScaleUp {
		t.Fatalf("after cooldown: %v", got)
	}
}

func TestVerdictReasonsForBounds(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 3})
	if got := a.Observe(5*time.Second, 3); got.Reason != "at-ceiling" {
		t.Fatalf("ceiling: %+v", got)
	}
	if got := a.Observe(time.Millisecond, 1); got.Reason != "at-floor" {
		t.Fatalf("floor: %+v", got)
	}
}

// Property: for arbitrary observation streams the autoscaler's actions,
// when applied, never push the size outside [1, Max].
func TestQuickBoundsRespected(t *testing.T) {
	f := func(obs []uint16) bool {
		a, err := New(Config{Target: time.Second, Max: 6})
		if err != nil {
			return false
		}
		servers := 3
		for _, o := range obs {
			exec := time.Duration(o) * time.Millisecond * 10
			switch a.Observe(exec, servers).Action {
			case ScaleUp:
				servers++
			case ScaleDown:
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
