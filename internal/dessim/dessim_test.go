package dessim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New(1)
	var end time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.Sleep(2 * time.Second)
		end = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 5*time.Second {
		t.Fatalf("end = %v, want 5s", end)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("sim now = %v, want 5s", s.Now())
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	s := New(1)
	s.Spawn("p", func(p *Proc) { p.Sleep(-time.Second) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 {
		t.Fatalf("now = %v, want 0", s.Now())
	}
}

func TestEventOrderingIsByTimeThenSequence(t *testing.T) {
	s := New(1)
	var order []int
	s.After(2*time.Millisecond, func() { order = append(order, 2) })
	s.After(time.Millisecond, func() { order = append(order, 1) })
	s.After(2*time.Millisecond, func() { order = append(order, 3) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestMailboxDeliveryLatency(t *testing.T) {
	s := New(1)
	mb := s.NewMailbox("mb")
	var got time.Duration
	var data interface{}
	s.Spawn("rx", func(p *Proc) {
		msg, ok := mb.Recv(p)
		if !ok {
			t.Error("mailbox closed unexpectedly")
			return
		}
		got = p.Now()
		data = msg.Data
	})
	s.Spawn("tx", func(p *Proc) {
		p.Sleep(time.Millisecond)
		mb.Deliver(5*time.Microsecond, Message{From: "tx", Data: 42})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != time.Millisecond+5*time.Microsecond {
		t.Fatalf("recv time = %v, want 1.005ms", got)
	}
	if data != 42 {
		t.Fatalf("data = %v, want 42", data)
	}
}

func TestMailboxFIFOAcrossManyMessages(t *testing.T) {
	s := New(1)
	mb := s.NewMailbox("mb")
	var got []int
	s.Spawn("rx", func(p *Proc) {
		for i := 0; i < 10; i++ {
			msg, ok := mb.Recv(p)
			if !ok {
				t.Error("closed early")
				return
			}
			got = append(got, msg.Data.(int))
		}
	})
	s.Spawn("tx", func(p *Proc) {
		for i := 0; i < 10; i++ {
			mb.Deliver(0, Message{Data: i})
			p.Sleep(time.Microsecond)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (fifo violated)", i, v, i)
		}
	}
}

func TestMailboxCloseWakesWaiters(t *testing.T) {
	s := New(1)
	mb := s.NewMailbox("mb")
	closedSeen := 0
	for i := 0; i < 3; i++ {
		s.Spawn("rx", func(p *Proc) {
			if _, ok := mb.Recv(p); !ok {
				closedSeen++
			}
		})
	}
	s.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		mb.Close()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if closedSeen != 3 {
		t.Fatalf("closedSeen = %d, want 3", closedSeen)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := New(1)
	mb := s.NewMailbox("never")
	s.Spawn("stuck", func(p *Proc) { mb.Recv(p) })
	if err := s.Run(); err == nil {
		t.Fatal("expected deadlock error, got nil")
	}
}

func TestSpawnFromRunningProcess(t *testing.T) {
	s := New(1)
	var childTime time.Duration
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		p.sim.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childTime = c.Now()
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 2*time.Second {
		t.Fatalf("child finished at %v, want 2s", childTime)
	}
}

// TestDeterminism checks the core reproducibility property: same seed and
// same program produce the same trace of (time, event) pairs.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []time.Duration {
		s := New(seed)
		mb := s.NewMailbox("mb")
		var trace []time.Duration
		for i := 0; i < 4; i++ {
			s.Spawn("w", func(p *Proc) {
				for {
					msg, ok := mb.Recv(p)
					if !ok {
						return
					}
					p.Sleep(time.Duration(msg.Data.(int)) * time.Microsecond)
					trace = append(trace, p.Now())
				}
			})
		}
		s.Spawn("gen", func(p *Proc) {
			for i := 0; i < 40; i++ {
				d := p.Sim().Rand().Intn(50)
				mb.Deliver(time.Duration(d)*time.Microsecond, Message{Data: d})
				p.Sleep(time.Microsecond)
			}
			mb.Close()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of message delays, every message is received, in
// timestamp order, and the final clock equals the max delivery time.
func TestQuickMailboxDeliveryProperties(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 {
			return true
		}
		if len(delaysRaw) > 64 {
			delaysRaw = delaysRaw[:64]
		}
		s := New(3)
		mb := s.NewMailbox("mb")
		var recvTimes []time.Duration
		s.Spawn("rx", func(p *Proc) {
			for {
				_, ok := mb.Recv(p)
				if !ok {
					return
				}
				recvTimes = append(recvTimes, p.Now())
			}
		})
		var maxT time.Duration
		for _, d := range delaysRaw {
			dt := time.Duration(d) * time.Nanosecond
			if dt > maxT {
				maxT = dt
			}
			mb.Deliver(dt, Message{Data: d})
		}
		s.After(maxT, func() { mb.Close() })
		if err := s.Run(); err != nil {
			return false
		}
		if len(recvTimes) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(recvTimes); i++ {
			if recvTimes[i] < recvTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
