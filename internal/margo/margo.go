// Package margo is the service runtime binding the RPC layer to
// lightweight tasking, modeled on Margo from the Mochi suite (which binds
// Mercury to Argobots). Goroutines stand in for Argobots user-level
// threads: like ULTs blocking on MoNA communication, a goroutine blocked in
// an RPC or collective yields the processor to other tasks instead of
// wasting a core — the property the paper calls out as MoNA's first
// advantage over MPI.
//
// An Instance owns one endpoint, its Mercury class, provider-qualified RPC
// registration, periodic tasks (used by the SWIM gossip loop), and ordered
// finalization callbacks.
package margo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// Instance is one simulated service process: endpoint + RPC + tasking.
type Instance struct {
	class *mercury.Class

	obsReg atomic.Pointer[obs.Registry]

	// Execution streams (see pool.go): named bounded pools plus the RPC
	// routing table the dispatcher consults on every incoming request.
	pmu     sync.RWMutex
	pools   map[string]*Pool
	rpcPool map[string]*Pool

	mu        sync.Mutex
	finalized bool
	stops     []*stopper
	onFinal   []func()
	wg        sync.WaitGroup
}

// NewInstance wraps an endpoint into a running service instance.
func NewInstance(ep na.Endpoint) *Instance {
	return &Instance{class: mercury.New(ep)}
}

// Class exposes the underlying Mercury class for direct RPC and bulk use.
func (m *Instance) Class() *mercury.Class { return m.class }

// SetObserver routes the instance's metrics (and the underlying class's RPC
// metrics) into r instead of the process default registry.
func (m *Instance) SetObserver(r *obs.Registry) {
	if r == nil {
		return
	}
	m.obsReg.Store(r)
	m.class.SetObserver(r)
}

func (m *Instance) observer() *obs.Registry {
	if r := m.obsReg.Load(); r != nil {
		return r
	}
	return obs.Default()
}

// Addr returns the instance address.
func (m *Instance) Addr() string { return m.class.Addr() }

// ProviderRPCName builds the wire name of a provider-qualified RPC, the
// analog of Margo's (rpc id, provider id) multiplexing.
func ProviderRPCName(provider, rpc string) string {
	return provider + "::" + rpc
}

// RegisterProviderRPC installs a handler for rpc under the given provider
// name. The handler is wrapped to record the instance's execution-stream
// depth (how many provider handlers run concurrently, the analog of an
// Argobots pool's queue depth) and per-handler dispatch latency.
func (m *Instance) RegisterProviderRPC(provider, rpc string, h mercury.Handler) {
	name := ProviderRPCName(provider, rpc)
	// The handler's two instruments, resolved once per registry: this
	// wrapper runs for every request, and a labeled registry lookup composes
	// a key string each time.
	type rpcMetrics struct {
		reg      *obs.Registry
		inflight *obs.Gauge
		latency  *obs.Histogram
	}
	var cached atomic.Pointer[rpcMetrics]
	m.class.Register(name, func(req mercury.Request) ([]byte, error) {
		reg := m.observer()
		rm := cached.Load()
		if rm == nil || rm.reg != reg {
			rm = &rpcMetrics{
				reg:      reg,
				inflight: reg.Gauge("margo.handlers.inflight"),
				latency:  reg.Histogram("margo.dispatch.latency", "rpc", name),
			}
			cached.Store(rm)
		}
		rm.inflight.Inc()
		start := reg.Now()
		defer func() {
			rm.latency.Observe(int64(reg.Now() - start))
			rm.inflight.Dec()
		}()
		return h(req)
	})
}

// CallProvider invokes a provider-qualified RPC at addr.
func (m *Instance) CallProvider(addr, provider, rpc string, payload []byte, timeout time.Duration) ([]byte, error) {
	return m.class.Call(addr, ProviderRPCName(provider, rpc), payload, timeout)
}

// Periodic starts a background task running fn every interval until the
// returned stop function is called or the instance finalizes. The first
// run happens after one interval.
func (m *Instance) Periodic(interval time.Duration, fn func()) (stop func()) {
	if interval <= 0 {
		interval = time.Millisecond
	}
	st := &stopper{ch: make(chan struct{})}
	m.mu.Lock()
	if m.finalized {
		m.mu.Unlock()
		return func() {}
	}
	m.stops = append(m.stops, st)
	m.wg.Add(1)
	m.mu.Unlock()
	tasks := m.observer().Gauge("margo.periodic.tasks")
	tasks.Inc()
	go func() {
		defer m.wg.Done()
		defer tasks.Dec()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-st.ch:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return st.stop
}

// stopper makes stopping a periodic task idempotent between the caller's
// stop function and Finalize.
type stopper struct {
	ch   chan struct{}
	once sync.Once
}

func (s *stopper) stop() { s.once.Do(func() { close(s.ch) }) }

// OnFinalize registers fn to run during Finalize, before the endpoint
// closes, in reverse registration order (like Margo's finalize callbacks).
func (m *Instance) OnFinalize(fn func()) {
	m.mu.Lock()
	m.onFinal = append(m.onFinal, fn)
	m.mu.Unlock()
}

// Finalize stops periodic tasks, runs finalize callbacks, and closes the
// endpoint. It is idempotent.
func (m *Instance) Finalize() {
	m.mu.Lock()
	if m.finalized {
		m.mu.Unlock()
		return
	}
	m.finalized = true
	stops := m.stops
	m.stops = nil
	final := m.onFinal
	m.onFinal = nil
	m.mu.Unlock()
	for _, st := range stops {
		st.stop()
	}
	m.wg.Wait()
	for i := len(final) - 1; i >= 0; i-- {
		final[i]()
	}
	m.class.Close()
	// With the endpoint closed no new work can be admitted; stop the pool
	// workers after they drain what was already accepted (their response
	// sends fail harmlessly against the closed endpoint).
	m.pmu.Lock()
	pools := make([]*Pool, 0, len(m.pools))
	for _, p := range m.pools {
		pools = append(pools, p)
	}
	m.pmu.Unlock()
	for _, p := range pools {
		p.close()
	}
}

// String identifies the instance in logs.
func (m *Instance) String() string { return fmt.Sprintf("margo(%s)", m.Addr()) }
