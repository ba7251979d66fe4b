package na

import (
	"testing"
	"time"
)

func TestFaultPlanDropsNthMatch(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	plan := NewFaultPlan(1).Add(FaultRule{To: b.Addr(), Nth: 2, Drop: true})
	n.SetFaultPlan(plan)
	for i := byte(0); i < 3; i++ {
		if err := a.Send(b.Addr(), []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	// Message 1 (the 2nd, 1-based) is dropped; 0 and 2 arrive in order.
	for _, want := range []byte{0, 2} {
		_, data, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != want {
			t.Fatalf("got %d, want %d", data[0], want)
		}
	}
	if plan.Fired(0) != 1 {
		t.Fatalf("rule fired %d times, want 1", plan.Fired(0))
	}
}

func TestFaultPlanLabelAndCount(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	// Classify messages by their first byte; drop at most two "x" messages.
	plan := NewFaultPlan(1).
		SetClassifier(func(data []byte) string { return string(data[:1]) }).
		Add(FaultRule{Label: "x", Count: 2, Drop: true})
	n.SetFaultPlan(plan)
	for _, m := range []string{"x1", "y1", "x2", "x3"} {
		if err := a.Send(b.Addr(), []byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	// x1 and x2 are dropped (Count=2 exhausted); y1 and x3 arrive.
	for _, want := range []string{"y1", "x3"} {
		_, data, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Fatalf("got %q, want %q", data, want)
		}
	}
}

func TestFaultPlanDelay(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	n.SetFaultPlan(NewFaultPlan(1).Add(FaultRule{Delay: 30 * time.Millisecond}))
	start := time.Now()
	if err := a.Send(b.Addr(), []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", d)
	}
}

func TestFaultPlanSeededProbReplays(t *testing.T) {
	run := func() []int {
		plan := NewFaultPlan(42).Add(FaultRule{Prob: 0.5, Drop: true})
		var fired []int
		for i := 0; i < 20; i++ {
			v := plan.Decide("a", "b", nil)
			if v.Drop {
				fired = append(fired, i)
			}
		}
		return fired
	}
	first, second := run(), run()
	if len(first) == 0 || len(first) == 20 {
		t.Fatalf("p=0.5 dropped %d/20; rng not working", len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("same seed must replay the same drop sequence")
		}
	}
}

func TestOneWayPartition(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	n.SetFaultPlan(NewFaultPlan(1).Add(FaultRule{From: a.Addr(), To: b.Addr(), Drop: true}))
	if err := a.Send(b.Addr(), []byte("lost")); err != nil {
		t.Fatal(err) // a one-way cut drops silently
	}
	if err := b.Send(a.Addr(), []byte("back")); err != nil {
		t.Fatal(err)
	}
	_, data, err := a.Recv()
	if err != nil || string(data) != "back" {
		t.Fatalf("reverse direction must still work: %q %v", data, err)
	}
	n.SetFaultPlan(nil)
	if err := a.Send(b.Addr(), []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if _, data, _ := b.Recv(); string(data) != "healed" {
		t.Fatalf("after heal got %q", data)
	}
}

func TestCrashAndRestartEndpoint(t *testing.T) {
	n := NewInprocNetwork()
	a, _ := n.Listen("a")
	b, _ := n.Listen("b")
	if err := n.Crash("b"); err != nil {
		t.Fatal(err)
	}
	// Sends to the crashed endpoint are silently lost, not errors.
	if err := a.Send("inproc://b", []byte("void")); err != nil {
		t.Fatal(err)
	}
	// Sends FROM the crashed endpoint fail: dead processes don't talk.
	if err := b.Send(a.Addr(), []byte("ghost")); err != ErrClosed {
		t.Fatalf("send from crashed endpoint = %v, want ErrClosed", err)
	}
	// Restart under the same name; traffic flows again.
	b2, err := n.Listen("b")
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if err := a.Send(b2.Addr(), []byte("hello again")); err != nil {
		t.Fatal(err)
	}
	if _, data, _ := b2.Recv(); string(data) != "hello again" {
		t.Fatalf("restarted endpoint got %q", data)
	}
	// Closing the stale crashed endpoint must not tear down the fresh one.
	b.Close()
	if err := a.Send(b2.Addr(), []byte("still up")); err != nil {
		t.Fatal(err)
	}
	if _, data, _ := b2.Recv(); string(data) != "still up" {
		t.Fatalf("after stale close got %q", data)
	}
	if err := n.Crash("ghost"); err == nil {
		t.Fatal("crashing an unknown endpoint must error")
	}
}
