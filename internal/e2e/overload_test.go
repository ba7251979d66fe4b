package e2e

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/obs"
)

// slowSink is a staging backend with a deliberate per-block cost, so a
// small pool saturates under concurrent clients and sheds.
type slowSink struct {
	blocks atomic.Int64
	delay  time.Duration
}

func (s *slowSink) Activate(core.IterationContext) error { return nil }
func (s *slowSink) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	time.Sleep(s.delay)
	s.blocks.Add(1)
	return nil
}
func (s *slowSink) Execute(uint64) (core.ExecResult, error) { return core.ExecResult{}, nil }
func (s *slowSink) Deactivate(uint64) error                 { return nil }
func (s *slowSink) Destroy() error                          { return nil }

func init() {
	core.RegisterPipelineType("e2e/slowsink", func(json.RawMessage) (core.Backend, error) {
		return &slowSink{delay: time.Millisecond}, nil
	})
}

// sumCountersWithPrefix totals every counter whose composed key starts
// with prefix (e.g. "margo.pool.shed{" across all pool labels).
func sumCountersWithPrefix(snap obs.Snapshot, prefix string) int64 {
	var total int64
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, prefix) {
			total += v
		}
	}
	return total
}

// TestOverloadShedsAndRecovers is the acceptance scenario for bounded
// execution streams: one server on its default pools against twice as many
// concurrent staging clients as its data pool holds (workers + queue), so
// the pool saturates on any core count. Every bound below is read from the
// pools the server bound. The server's resource envelope must stay
// fixed (handler concurrency bounded by the pools, goroutines not O(clients)),
// every client must eventually succeed through ErrBusy retries, and the
// shed/busy-retry counters must be non-zero and balanced — no request is
// silently dropped.
func TestOverloadShedsAndRecovers(t *testing.T) {
	const blocksPer = 4
	net := na.NewInprocNetwork()
	s, err := core.StartInprocServer(net, "ov-srv", core.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	control := s.MI.Pool(core.ControlPoolName).Config()
	data := s.MI.Pool(core.DataPoolName).Config()
	clients := 2 * (data.Workers + data.Queue)

	cEP, err := net.Listen("ov-cli")
	if err != nil {
		t.Fatal(err)
	}
	mi := margo.NewInstance(cEP)
	defer mi.Finalize()
	client := core.NewClient(mi)
	clientReg := obs.NewRegistry()
	client.SetObserver(clientReg)
	admin := core.NewAdminClient(mi)
	if err := admin.CreatePipeline(s.Addr(), "ov", "e2e/slowsink", nil); err != nil {
		t.Fatal(err)
	}

	h := client.Handle("ov", s.Addr())
	h.SetTimeout(30 * time.Second)
	// A generous outer policy: with twice as many ranks as data-pool slots
	// the busy retry loops must be able to ride out a long contention window.
	h.SetStageRetry(core.RetryPolicy{Max: 50, Base: time.Millisecond, Cap: 20 * time.Millisecond, Jitter: 1})
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()

	// Track the goroutine peak while the storm runs.
	var peak atomic.Int64
	stopSampling := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	payload := make([]byte, 16<<10)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for b := 0; b < blocksPer; b++ {
				meta := core.BlockMeta{Field: "v", BlockID: cl*blocksPer + b, Type: "raw"}
				if err := h.Stage(1, meta, payload); err != nil {
					errs[cl] = fmt.Errorf("client %d block %d: %w", cl, b, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(stopSampling)
	sampler.Wait()

	// 1. Every client eventually succeeded (busy is retryable, nothing
	// was silently dropped).
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}

	// 2. Handler concurrency on the server stayed within the execution
	// streams: at most the pools' workers run at once (small slack for
	// unpooled SWIM gossip handlers landing mid-storm).
	inflightMax := s.Obs.Gauge("margo.handlers.inflight").Max()
	if limit := int64(data.Workers + control.Workers + 4); inflightMax > limit {
		t.Errorf("margo.handlers.inflight max = %d, want <= %d (pool workers + gossip slack)", inflightMax, limit)
	}
	if busyMax := s.Obs.Gauge("margo.pool.busy", "pool", core.DataPoolName).Max(); busyMax > int64(data.Workers) {
		t.Errorf("margo.pool.busy{pool=data} max = %d, want <= %d workers", busyMax, data.Workers)
	}
	// The depth gauge decrements at dispatch, so between a worker taking a
	// task and its Dec another admission can land: bound is queue+workers.
	if depthMax := s.Obs.Gauge("margo.pool.queue.depth", "pool", core.DataPoolName).Max(); depthMax > int64(data.Queue+data.Workers) {
		t.Errorf("margo.pool.queue.depth{pool=data} max = %d, want <= %d", depthMax, data.Queue+data.Workers)
	}

	// 3. Process goroutines stayed bounded: the stagers we spawned,
	// plus the server's fixed envelope (pool workers + queue), plus slack
	// for the client's transient bulk-pull services — NOT one server
	// handler per client on top.
	poolCapacity := data.Workers + data.Queue + control.Workers + control.Queue
	limit := int64(baseline + clients + poolCapacity + 24)
	if p := peak.Load(); p > limit {
		t.Errorf("goroutine peak %d, want <= %d (baseline %d + %d clients + %d pool capacity + slack)",
			p, limit, baseline, clients, poolCapacity)
	}

	// 4. Shedding actually happened and was balanced: every shed the
	// servers recorded was seen by a client as a busy response (and
	// retried), nothing vanished in between.
	serverSnap := s.Obs.Snapshot()
	sheds := sumCountersWithPrefix(serverSnap, "margo.pool.shed{")
	busyRetries := sumCountersWithPrefix(clientReg.Snapshot(), "core.client.retries.busy{")
	if sheds == 0 {
		t.Error("margo.pool.shed = 0: the overload never saturated the pool")
	}
	if sheds != busyRetries {
		t.Errorf("sheds (%d) != client busy retries (%d): a shed response went unaccounted", sheds, busyRetries)
	}
	if waits := serverSnap.Histograms["margo.pool.wait{pool=data}"]; waits.Count == 0 {
		t.Error("margo.pool.wait{pool=data} recorded no dispatches")
	}

	// 5. The transport receive queue is not silently accumulating: the
	// unbounded pktQueue's blind spot is covered by the depth gauge, which
	// must be back at zero (baseline) once the storm is over. The
	// high-water mark is reported in the same snapshot for inspection.
	if depth := s.Obs.Gauge("na.queue.depth", "transport", "inproc").Value(); depth != 0 {
		t.Errorf("na.queue.depth{transport=inproc} = %d after storm, want 0 (receive queue not drained)", depth)
	}

	// 6. The storm drains completely: goroutines return to the baseline
	// (pool workers are long-lived and were part of it).
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not drain: have %d, baseline %d", runtime.NumGoroutine(), baseline)
}
