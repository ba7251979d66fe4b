package margo

import (
	"sync"
	"sync/atomic"
	"time"

	"colza/internal/mercury"
	"colza/internal/obs"
)

// This file implements execution streams: named bounded pools the analog of
// Margo binding Mercury handlers to Argobots pools. Each pool owns a fixed
// set of worker goroutines and a bounded queue; an RPC bound to a pool runs
// on one of its workers instead of a fresh goroutine. When the queue is
// full the request is shed at admission with mercury's retryable busy
// status — the server's resource envelope stays fixed no matter how many
// clients push, and producers are told to back off instead of being
// silently absorbed (the Catalyst/ISAAC flow-control argument).

// PoolConfig sizes one execution stream.
type PoolConfig struct {
	// Workers is the number of concurrently running handlers (default 4).
	Workers int
	// Queue is how many admitted requests may wait beyond the running ones
	// (default 2*Workers; negative means no waiting room at all).
	Queue int
	// BusyHint is the Retry-After backoff suggestion carried on shed
	// responses (default 2ms).
	BusyHint time.Duration
}

func (cfg PoolConfig) normalized() PoolConfig {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	switch {
	case cfg.Queue < 0:
		cfg.Queue = 0
	case cfg.Queue == 0:
		cfg.Queue = 2 * cfg.Workers
	}
	if cfg.BusyHint <= 0 {
		cfg.BusyHint = 2 * time.Millisecond
	}
	return cfg
}

// Pool is one bounded execution stream of an Instance.
type Pool struct {
	name string
	m    *Instance
	cfg  PoolConfig

	tasks  chan poolTask
	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	metrics atomic.Pointer[poolMetrics]
}

type poolTask struct {
	run func()
	enq time.Duration // observer clock at admission, for queue-wait latency
}

// DefinePool creates (or returns, if the name is taken) a bounded pool and
// starts its workers. Defining any pool installs the instance's dispatcher
// on the Mercury class; RPCs are then routed to pools by BindRPCPool, and
// unbound RPCs keep the historic one-goroutine-per-request behavior.
func (m *Instance) DefinePool(name string, cfg PoolConfig) *Pool {
	cfg = cfg.normalized()
	m.pmu.Lock()
	if m.pools == nil {
		m.pools = make(map[string]*Pool)
		m.rpcPool = make(map[string]*Pool)
	}
	if p, ok := m.pools[name]; ok {
		m.pmu.Unlock()
		return p
	}
	p := &Pool{
		name:  name,
		m:     m,
		cfg:   cfg,
		tasks: make(chan poolTask, cfg.Queue),
		stop:  make(chan struct{}),
	}
	m.pools[name] = p
	first := len(m.pools) == 1
	m.pmu.Unlock()
	m.observer().Gauge("margo.pool.workers", "pool", name).Set(int64(cfg.Workers))
	for i := 0; i < cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	if first {
		m.class.SetDispatcher(m.dispatch)
	}
	return p
}

// Pool returns a pool by name, or nil.
func (m *Instance) Pool(name string) *Pool {
	m.pmu.RLock()
	defer m.pmu.RUnlock()
	return m.pools[name]
}

// BindRPCPool routes the fully qualified RPC name (see ProviderRPCName)
// onto p. A nil pool removes the binding.
func (m *Instance) BindRPCPool(rpcName string, p *Pool) {
	m.pmu.Lock()
	if m.rpcPool == nil {
		m.rpcPool = make(map[string]*Pool)
	}
	if p == nil {
		delete(m.rpcPool, rpcName)
	} else {
		m.rpcPool[rpcName] = p
	}
	m.pmu.Unlock()
}

// RegisterProviderRPCOnPool registers the handler and binds it to p in one
// step — per-RPC pool assignment at registration time.
func (m *Instance) RegisterProviderRPCOnPool(provider, rpc string, p *Pool, h mercury.Handler) {
	m.RegisterProviderRPC(provider, rpc, h)
	if p != nil {
		m.BindRPCPool(ProviderRPCName(provider, rpc), p)
	}
}

// dispatch is the mercury.Dispatcher: route bound RPCs to their pool,
// spawn everything else (responses never come here; internal RPCs like the
// bulk-pull service stay unbounded — their concurrency is already bounded
// by the pooled handlers that drive them).
func (m *Instance) dispatch(name string, run func()) error {
	m.pmu.RLock()
	p := m.rpcPool[name]
	m.pmu.RUnlock()
	if p == nil {
		go run()
		return nil
	}
	return p.trySubmit(run)
}

// Name returns the pool name.
func (p *Pool) Name() string { return p.name }

// Config returns the normalized pool sizing.
func (p *Pool) Config() PoolConfig { return p.cfg }

// trySubmit admits run into the queue or sheds it with a retryable busy
// error. Never blocks: admission control happens here, on the progress
// loop, so a full pool costs the caller one round trip, not a goroutine.
func (p *Pool) trySubmit(run func()) error {
	pm := p.poolMetrics()
	if p.closed.Load() {
		pm.shed.Inc()
		return &mercury.BusyError{RetryAfter: p.cfg.BusyHint}
	}
	select {
	case p.tasks <- poolTask{run: run, enq: pm.reg.Now()}:
		pm.depth.Inc()
		return nil
	default:
		pm.shed.Inc()
		return &mercury.BusyError{RetryAfter: p.cfg.BusyHint}
	}
}

// poolMetrics are a pool's per-request instruments, resolved once per
// registry: every admitted request touches four of them, and a labeled
// registry lookup composes a key string each time.
type poolMetrics struct {
	reg   *obs.Registry
	shed  *obs.Counter
	depth *obs.Gauge
	busy  *obs.Gauge
	wait  *obs.Histogram
}

func (p *Pool) poolMetrics() *poolMetrics {
	reg := p.m.observer()
	if pm := p.metrics.Load(); pm != nil && pm.reg == reg {
		return pm
	}
	pm := &poolMetrics{
		reg:   reg,
		shed:  reg.Counter("margo.pool.shed", "pool", p.name),
		depth: reg.Gauge("margo.pool.queue.depth", "pool", p.name),
		busy:  reg.Gauge("margo.pool.busy", "pool", p.name),
		wait:  reg.Histogram("margo.pool.wait", "pool", p.name),
	}
	p.metrics.Store(pm)
	return pm
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.stop:
			// Drain admitted work before exiting: a request that made it
			// into the queue was promised execution, never a silent drop.
			for {
				select {
				case t := <-p.tasks:
					p.runTask(t)
				default:
					return
				}
			}
		case t := <-p.tasks:
			p.runTask(t)
		}
	}
}

func (p *Pool) runTask(t poolTask) {
	pm := p.poolMetrics()
	pm.depth.Dec()
	pm.wait.Observe(int64(pm.reg.Now() - t.enq))
	pm.busy.Inc()
	t.run()
	pm.busy.Dec()
}

// close stops the workers after the current (and queued) tasks finish.
func (p *Pool) close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.stop)
	p.wg.Wait()
}
