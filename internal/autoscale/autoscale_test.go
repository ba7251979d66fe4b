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
	if got := a.Observe(2*time.Second, 2); got != ScaleUp {
		t.Fatalf("got %v, want scale-up", got)
	}
}

func TestHoldInsideBand(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	if got := a.Observe(900*time.Millisecond, 4); got != Hold {
		t.Fatalf("got %v, want hold", got)
	}
}

func TestScaleDownWhenComfortablyUnder(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	// 0.2s on 4 servers: projected on 3 servers = 0.267s < 0.7s.
	if got := a.Observe(200*time.Millisecond, 4); got != ScaleDown {
		t.Fatalf("got %v, want scale-down", got)
	}
}

func TestNoScaleDownWhenProjectionWouldOvershoot(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	// 0.6s on 2 servers: on 1 server projected 1.2s > 0.7s low water.
	if got := a.Observe(600*time.Millisecond, 2); got != Hold {
		t.Fatalf("got %v, want hold", got)
	}
}

func TestRespectsBounds(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Min: 2, Max: 3})
	if got := a.Observe(5*time.Second, 3); got != Hold {
		t.Fatalf("at max: got %v, want hold", got)
	}
	a2 := mustNew(t, Config{Target: time.Second, Min: 2, Max: 3})
	if got := a2.Observe(time.Millisecond, 2); got != Hold {
		t.Fatalf("at min: got %v, want hold", got)
	}
}

func TestCooldownSuppressesFlapping(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8, Cooldown: 3})
	if got := a.Observe(5*time.Second, 1); got != ScaleUp {
		t.Fatalf("first: %v", got)
	}
	// Next two observations are in cooldown even though still over.
	if got := a.Observe(5*time.Second, 2); got != Hold {
		t.Fatalf("cooldown 1: %v", got)
	}
	if got := a.Observe(5*time.Second, 2); got != Hold {
		t.Fatalf("cooldown 2: %v", got)
	}
	if got := a.Observe(5*time.Second, 2); got != ScaleUp {
		t.Fatalf("after cooldown: %v", got)
	}
}

// A growing workload (DWI-like) must drive the size up monotonically and
// keep the controlled time bounded, assuming ideal 1/n scaling.
func TestTracksGrowingWorkload(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 16, Cooldown: 1})
	servers := 1
	maxSeen := 0.0
	for it := 0; it < 30; it++ {
		// DWI-like linear growth of the total rendering work.
		work := 0.5 + 0.45*float64(it)
		exec := work / float64(servers)
		if exec > maxSeen {
			maxSeen = exec
		}
		switch a.Observe(time.Duration(exec*float64(time.Second)), servers) {
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
	a := mustNew(t, Config{Target: time.Second, Min: 1, Max: 16, Cooldown: 1})
	servers := 8
	work := 0.4 // tiny work on many servers
	downs := 0
	for it := 0; it < 10; it++ {
		exec := work / float64(servers)
		if a.Observe(time.Duration(exec*float64(time.Second)), servers) == ScaleDown {
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

// The injectable clock must drive the cooldown window without any real
// sleeping.
func TestCooldownWindowOnVirtualClock(t *testing.T) {
	var now time.Duration
	a := mustNew(t, Config{
		Target: time.Second, Max: 8, Cooldown: 1,
		CooldownWindow: 10 * time.Second,
		Clock:          func() time.Duration { return now },
	})
	if got := a.ObserveBatch([]Sample{{Exec: 5 * time.Second, Servers: 1}}); got.Action != ScaleUp {
		t.Fatalf("first: %+v", got)
	}
	now += 5 * time.Second
	if got := a.ObserveBatch([]Sample{{Exec: 5 * time.Second, Servers: 2}}); got.Reason != "cooldown-window" {
		t.Fatalf("inside window: %+v", got)
	}
	if left := a.CooldownRemaining(); left != 5*time.Second {
		t.Fatalf("remaining = %v", left)
	}
	now += 6 * time.Second
	if got := a.ObserveBatch([]Sample{{Exec: 5 * time.Second, Servers: 2}}); got.Action != ScaleUp {
		t.Fatalf("after window: %+v", got)
	}
	// The second action, at 11s on the clock, opened a fresh window.
	if left := a.CooldownRemaining(); left != 10*time.Second {
		t.Fatalf("remaining after the second action = %v", left)
	}
}

// Confirm > 1 must hold through a single spike and act only on a
// sustained breach.
func TestConfirmHysteresis(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8, Confirm: 2, Cooldown: 1})
	if got := a.ObserveBatch([]Sample{{Exec: 5 * time.Second, Servers: 2}}); got.Reason != "confirming-up" {
		t.Fatalf("spike sample: %+v", got)
	}
	// Spike over: the streak resets and nothing ever fires.
	if got := a.ObserveBatch([]Sample{{Exec: 900 * time.Millisecond, Servers: 2}}); got.Reason != "steady" {
		t.Fatalf("back to steady: %+v", got)
	}
	// A sustained breach fires on the second confirming observation.
	if got := a.Observe(5*time.Second, 2); got != Hold {
		t.Fatalf("confirm 1/2: %v", got)
	}
	if got := a.Observe(5*time.Second, 2); got != ScaleUp {
		t.Fatalf("confirm 2/2: %v", got)
	}
}

func TestConfirmHysteresisDown(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8, Confirm: 2, Cooldown: 1})
	if got := a.ObserveBatch([]Sample{{Exec: 100 * time.Millisecond, Servers: 4}}); got.Reason != "confirming-down" {
		t.Fatalf("dip sample: %+v", got)
	}
	if got := a.Observe(100*time.Millisecond, 4); got != ScaleDown {
		t.Fatal("sustained dip should release a server")
	}
}

func TestObserveBatchSemantics(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8})
	if got := a.ObserveBatch(nil); got.Reason != "idle" || got.Action != Hold {
		t.Fatalf("empty batch: %+v", got)
	}
	// A batch spanning the breach returns the action, not the later holds
	// (the post-action samples land in the count cooldown).
	got := a.ObserveBatch([]Sample{
		{Exec: 500 * time.Millisecond, Servers: 1},
		{Exec: 5 * time.Second, Servers: 1},
		{Exec: 5 * time.Second, Servers: 1},
	})
	if got.Action != ScaleUp || got.Reason != "over-target" {
		t.Fatalf("batch verdict: %+v", got)
	}
	// Every sample was observed: the third spent the one-observation
	// cooldown, so the next breach acts at once.
	if got := a.Observe(5*time.Second, 2); got != ScaleUp {
		t.Fatalf("after the batch: %v", got)
	}
}

func TestStartCooldownSuppresses(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Max: 8, Cooldown: 3})
	a.StartCooldown()
	if got := a.Observe(5*time.Second, 1); got != Hold {
		t.Fatalf("cooldown ignored after StartCooldown: %v", got)
	}
	if got := a.Observe(5*time.Second, 1); got != Hold {
		t.Fatalf("cooldown 2: %v", got)
	}
	if got := a.Observe(5*time.Second, 1); got != ScaleUp {
		t.Fatalf("after cooldown: %v", got)
	}
}

func TestVerdictReasonsForBounds(t *testing.T) {
	a := mustNew(t, Config{Target: time.Second, Min: 2, Max: 3, Cooldown: 1})
	if got := a.ObserveBatch([]Sample{{Exec: 5 * time.Second, Servers: 3}}); got.Reason != "at-ceiling" {
		t.Fatalf("ceiling: %+v", got)
	}
	if got := a.ObserveBatch([]Sample{{Exec: time.Millisecond, Servers: 2}}); got.Reason != "at-floor" {
		t.Fatalf("floor: %+v", got)
	}
}

// Property: for arbitrary observation streams the autoscaler's actions,
// when applied, never push the size outside [Min, Max].
func TestQuickBoundsRespected(t *testing.T) {
	f := func(obs []uint16) bool {
		a, err := New(Config{Target: time.Second, Min: 2, Max: 6, Cooldown: 1})
		if err != nil {
			return false
		}
		servers := 3
		for _, o := range obs {
			exec := time.Duration(o) * time.Millisecond * 10
			switch a.Observe(exec, servers) {
			case ScaleUp:
				servers++
			case ScaleDown:
				servers--
			}
			if servers < 2 || servers > 6 {
				return false
			}
		}
		return true
	}
	if err := testingQuickCheck(f); err != nil {
		t.Fatal(err)
	}
}
