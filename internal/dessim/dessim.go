// Package dessim implements a deterministic discrete-event simulation
// kernel. It is the substrate on which the communication micro-benchmarks
// (Tables I and II of the Colza paper) and the membership-propagation
// studies run: hundreds of simulated processes exchange messages in virtual
// time, with microsecond-scale network costs that real goroutine sleeps
// could not reproduce deterministically.
//
// The kernel uses an "activity-oriented" design: every simulated process is
// a goroutine, but at most one goroutine (either a process or the scheduler)
// runs at any moment. Control is handed off explicitly, so the simulation is
// single-threaded in behaviour, fully deterministic, and needs no locking in
// user code. Processes block in virtual time via Sleep and via Mailbox
// receive operations; the scheduler advances the clock to the next pending
// event when every process is blocked.
package dessim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Sim is a discrete-event simulation. The zero value is not usable; create
// instances with New.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	yield  chan struct{}
	nextID int
	live   map[*Proc]bool
	rng    *rand.Rand
}

// New creates an empty simulation whose clock starts at zero. The seed
// initializes the simulation-wide random source handed to processes; two
// runs with the same seed and the same Spawn order produce identical event
// sequences.
func New(seed int64) *Sim {
	return &Sim{
		yield: make(chan struct{}),
		live:  make(map[*Proc]bool),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic random source. It must only
// be used from scheduler context or from the currently running process.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// After schedules fn to run in scheduler context d from now. Negative
// delays are treated as zero.
func (s *Sim) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.schedule(s.now+d, fn)
}

func (s *Sim) schedule(t time.Duration, fn func()) {
	s.seq++
	heap.Push(&s.events, &event{t: t, seq: s.seq, fn: fn})
}

// Spawn registers a new process whose body starts executing at the current
// virtual time. Spawn may be called before Run or from a running process.
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc {
	s.nextID++
	p := &Proc{
		sim:    s,
		name:   name,
		id:     s.nextID,
		resume: make(chan struct{}),
		state:  "spawned",
	}
	s.live[p] = true
	s.schedule(s.now, func() {
		go func() {
			<-p.resume
			fn(p)
			p.state = "done"
			delete(s.live, p)
			s.yield <- struct{}{}
		}()
		s.runProc(p)
	})
	return p
}

// runProc hands control to p and waits until it parks or terminates. It
// must only be called from scheduler context.
func (s *Sim) runProc(p *Proc) {
	p.state = "running"
	p.resume <- struct{}{}
	<-s.yield
}

// Run executes events until none remain. It returns an error if processes
// are still blocked when the event queue drains (a virtual-time deadlock),
// naming the stuck processes.
func (s *Sim) Run() error {
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(*event)
		if ev.t > s.now {
			s.now = ev.t
		}
		ev.fn()
	}
	if len(s.live) > 0 {
		var names []string
		for p := range s.live {
			names = append(names, fmt.Sprintf("%s(%s)", p.name, p.state))
		}
		sort.Strings(names)
		return fmt.Errorf("dessim: deadlock at %v: %d blocked processes: %v", s.now, len(names), names)
	}
	return nil
}

// Proc is a simulated process. All methods must be called from the
// process's own goroutine while it is the running process.
type Proc struct {
	sim    *Sim
	name   string
	id     int
	resume chan struct{}
	state  string
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Sleep blocks the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	s.schedule(s.now+d, func() { s.runProc(p) })
	p.park("sleeping")
}

// park yields control back to the scheduler until the process is resumed.
func (p *Proc) park(why string) {
	p.state = why
	p.sim.yield <- struct{}{}
	<-p.resume
	p.state = "running"
}

type event struct {
	t   time.Duration
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
