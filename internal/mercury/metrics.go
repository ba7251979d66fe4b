package mercury

import (
	"sync"
	"sync/atomic"

	"colza/internal/obs"
)

// Instrument lookups with labels (obs.Key) build a composed key string per
// call — a measurable allocation on the per-block hot path. The caches below
// resolve each (registry, rpc-name) instrument set once and reuse the
// handles; SetObserver invalidates them implicitly because every cached
// entry remembers the registry it was built against.

// callMetrics bundles the per-RPC caller-side instruments.
type callMetrics struct {
	reg      *obs.Registry
	count    *obs.Counter
	bytesOut *obs.Counter
	bytesIn  *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// serveMetrics bundles the per-RPC callee-side instruments.
type serveMetrics struct {
	reg     *obs.Registry
	count   *obs.Counter
	bytesIn *obs.Counter
	errors  *obs.Counter
	latency *obs.Histogram
}

// metricsCache maps rpc name -> cached instrument bundle.
type metricsCache struct{ m sync.Map }

func (mc *metricsCache) call(reg *obs.Registry, name string) *callMetrics {
	if v, ok := mc.m.Load(name); ok {
		if cm := v.(*callMetrics); cm.reg == reg {
			return cm
		}
	}
	cm := &callMetrics{
		reg:      reg,
		count:    reg.Counter("mercury.call.count", "rpc", name),
		bytesOut: reg.Counter("mercury.call.bytes.out", "rpc", name),
		bytesIn:  reg.Counter("mercury.call.bytes.in", "rpc", name),
		errors:   reg.Counter("mercury.call.errors", "rpc", name),
		latency:  reg.Histogram("mercury.call.latency", "rpc", name),
	}
	mc.m.Store(name, cm)
	return cm
}

func (mc *metricsCache) serve(reg *obs.Registry, name string) *serveMetrics {
	if v, ok := mc.m.Load(name); ok {
		if sm := v.(*serveMetrics); sm.reg == reg {
			return sm
		}
	}
	sm := &serveMetrics{
		reg:     reg,
		count:   reg.Counter("mercury.serve.count", "rpc", name),
		bytesIn: reg.Counter("mercury.serve.bytes.in", "rpc", name),
		errors:  reg.Counter("mercury.serve.errors", "rpc", name),
		latency: reg.Histogram("mercury.serve.latency", "rpc", name),
	}
	mc.m.Store(name, sm)
	return sm
}

// bulkMetrics bundles the bulk instruments (unlabeled, one set per
// registry).
type bulkMetrics struct {
	reg        *obs.Registry
	count      *obs.Counter
	bytes      *obs.Counter
	latency    *obs.Histogram
	eagerCount *obs.Counter
	eagerBytes *obs.Counter
	exposed    *obs.Gauge
}

type bulkMetricsCache struct{ p atomic.Pointer[bulkMetrics] }

func (mc *bulkMetricsCache) for_(reg *obs.Registry) *bulkMetrics {
	if m := mc.p.Load(); m != nil && m.reg == reg {
		return m
	}
	m := &bulkMetrics{
		reg:        reg,
		count:      reg.Counter("mercury.bulk.pull.count"),
		bytes:      reg.Counter("mercury.bulk.pull.bytes"),
		latency:    reg.Histogram("mercury.bulk.pull.latency"),
		eagerCount: reg.Counter("mercury.bulk.eager.count"),
		eagerBytes: reg.Counter("mercury.bulk.eager.bytes"),
		exposed:    reg.Gauge("mercury.bulk.exposed.bytes"),
	}
	mc.p.Store(m)
	return m
}
