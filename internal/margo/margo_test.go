package margo

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/mercury"
	"colza/internal/na"
)

func twoInstances(t *testing.T) (*Instance, *Instance) {
	t.Helper()
	net := na.NewInprocNetwork()
	e1, err := net.Listen("m1")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := net.Listen("m2")
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := NewInstance(e1), NewInstance(e2)
	t.Cleanup(func() { m1.Finalize(); m2.Finalize() })
	return m1, m2
}

func TestProviderRPCMultiplexing(t *testing.T) {
	m1, m2 := twoInstances(t)
	m2.RegisterProviderRPC("colza", "hello", func(req mercury.Request) ([]byte, error) {
		return []byte("from-colza"), nil
	})
	m2.RegisterProviderRPC("admin", "hello", func(req mercury.Request) ([]byte, error) {
		return []byte("from-admin"), nil
	})
	out, err := m1.CallProvider(m2.Addr(), "colza", "hello", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "from-colza" {
		t.Fatalf("out = %q", out)
	}
	out, err = m1.CallProvider(m2.Addr(), "admin", "hello", nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "from-admin" {
		t.Fatalf("out = %q", out)
	}
	if _, err := m1.CallProvider(m2.Addr(), "ghost", "hello", nil, time.Second); !errors.Is(err, mercury.ErrUnknownRPC) {
		t.Fatalf("err = %v, want ErrUnknownRPC", err)
	}
}

func TestPeriodicRunsAndStops(t *testing.T) {
	m1, _ := twoInstances(t)
	var n atomic.Int32
	stop := m1.Periodic(5*time.Millisecond, func() { n.Add(1) })
	time.Sleep(60 * time.Millisecond)
	stop()
	got := n.Load()
	if got < 3 {
		t.Fatalf("periodic ran %d times, want >= 3", got)
	}
	time.Sleep(30 * time.Millisecond)
	if after := n.Load(); after > got+1 {
		t.Fatalf("periodic kept running after stop: %d -> %d", got, after)
	}
	stop() // idempotent
}

func TestFinalizeStopsPeriodicsAndRunsCallbacksLIFO(t *testing.T) {
	net := na.NewInprocNetwork()
	ep, _ := net.Listen("fin")
	m := NewInstance(ep)
	var order []string
	m.OnFinalize(func() { order = append(order, "first-registered") })
	m.OnFinalize(func() { order = append(order, "second-registered") })
	var ticks atomic.Int32
	m.Periodic(time.Millisecond, func() { ticks.Add(1) })
	time.Sleep(20 * time.Millisecond)
	m.Finalize()
	if len(order) != 2 || order[0] != "second-registered" || order[1] != "first-registered" {
		t.Fatalf("callback order = %v, want LIFO", order)
	}
	before := ticks.Load()
	time.Sleep(20 * time.Millisecond)
	if ticks.Load() != before {
		t.Fatal("periodic survived Finalize")
	}
	m.Finalize() // idempotent
}

func TestPeriodicAfterFinalizeIsNoop(t *testing.T) {
	net := na.NewInprocNetwork()
	ep, _ := net.Listen("nf")
	m := NewInstance(ep)
	m.Finalize()
	var n atomic.Int32
	stop := m.Periodic(time.Millisecond, func() { n.Add(1) })
	time.Sleep(15 * time.Millisecond)
	stop()
	if n.Load() != 0 {
		t.Fatal("periodic ran on finalized instance")
	}
}
