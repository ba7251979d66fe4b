package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/obs"
)

// failBlockPipeline is a backend whose Stage rejects one specific block ID,
// so tests can watch the batch path demultiplex a single block's failure
// without failing its batch-mates.
type failBlockPipeline struct {
	mu     sync.Mutex
	staged int
}

func (f *failBlockPipeline) Activate(ctx IterationContext) error { return nil }

func (f *failBlockPipeline) Stage(it uint64, meta BlockMeta, data []byte) error {
	if meta.BlockID == 1 {
		return fmt.Errorf("failblock: synthetic stage failure for block %d", meta.BlockID)
	}
	f.mu.Lock()
	f.staged++
	f.mu.Unlock()
	return nil
}

func (f *failBlockPipeline) Execute(it uint64) (ExecResult, error) { return ExecResult{}, nil }
func (f *failBlockPipeline) Deactivate(it uint64) error            { return nil }
func (f *failBlockPipeline) Destroy() error                        { return nil }

func init() {
	RegisterPipelineType("failblock", func(cfg json.RawMessage) (Backend, error) {
		return &failBlockPipeline{}, nil
	})
}

// batchedHandle builds a coalescing handle on the in-process fabric (where
// Handle itself would stage per block), with its frame boundaries pinned —
// maxBlocks per frame, maxAge < 0 for no age timer — and a fresh client-side
// registry for counter assertions.
func batchedHandle(t *testing.T, d *deployment, pipeline string, maxBlocks int, maxAge time.Duration) (*DistributedPipelineHandle, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	d.client.SetObserver(reg)
	h := d.client.newHandle(pipeline, d.servers[0].Addr(), true)
	h.SetTimeout(2 * time.Second)
	h.batch.maxBlocks, h.batch.maxAge = maxBlocks, maxAge
	t.Cleanup(h.Close)
	return h, reg
}

func TestStageBatchedLifecycle(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h, reg := batchedHandle(t, d, "viz", 4, -1)
	h.batch.window = 2

	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	const blocks = 9
	var total float64
	for b := 0; b < blocks; b++ {
		data := bytes.Repeat([]byte{byte(b)}, 100*(b+1))
		total += float64(len(data))
		if err := h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(1); err != nil {
		t.Fatal(err)
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Summary["total_bytes"] != total {
		t.Fatalf("results = %+v, want total %v", res, total)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["colza.stage.batch.blocks{pipeline=viz}"]; got != blocks {
		t.Errorf("batch.blocks = %d, want %d", got, blocks)
	}
	if got := snap.Counters["colza.stage.batch.bytes{pipeline=viz}"]; got != int64(total) {
		t.Errorf("batch.bytes = %d, want %v", got, total)
	}
	// 9 blocks over 2 ranks with MaxBlocks 4: at least one size-triggered
	// flush, and every flush is counted.
	full := snap.Counters["colza.stage.batch.full{pipeline=viz}"]
	flushes := snap.Counters["colza.stage.batch.flushes{pipeline=viz}"]
	if full < 1 || flushes < full {
		t.Errorf("full=%d flushes=%d, want full >= 1 and flushes >= full", full, flushes)
	}
	if got := snap.Counters["colza.stage.batch.age{pipeline=viz}"]; got != 0 {
		t.Errorf("age trigger fired %d times with MaxAge < 0", got)
	}
	if g := snap.Gauges["colza.stage.batch.window{pipeline=viz}"]; g.Max > 2 {
		t.Errorf("window depth peaked at %d, want <= 2", g.Max)
	}
	if got := snap.Counters["colza.stage.blocks{pipeline=viz}"]; got != blocks {
		t.Errorf("stage.blocks = %d, want %d", got, blocks)
	}

	// Execute's implicit barrier: no explicit Flush this iteration.
	if _, err := h.Activate(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Stage(2, BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	res, err = h.Execute(2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Summary["total_bytes"] != 64 {
		t.Fatalf("iteration 2 results = %+v", res)
	}
	if err := h.Deactivate(2); err != nil {
		t.Fatal(err)
	}
}

func TestStageBatchedAgeTrigger(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, reg := batchedHandle(t, d, "viz", 1<<20, 5*time.Millisecond)

	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Stage(1, BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, bytes.Repeat([]byte{3}, 128)); err != nil {
		t.Fatal(err)
	}
	// No size trigger can fire and no barrier is issued: only the age timer
	// can get this block to the server.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.servers[0].Obs.Snapshot().Counters["colza.staged.blocks{pipeline=viz}"] >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := d.servers[0].Obs.Snapshot().Counters["colza.staged.blocks{pipeline=viz}"]; got != 1 {
		t.Fatalf("server staged %d blocks, want 1 (age trigger did not fire)", got)
	}
	if got := reg.Snapshot().Counters["colza.stage.batch.age{pipeline=viz}"]; got != 1 {
		t.Errorf("age counter = %d, want 1", got)
	}
	if err := h.Flush(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Execute(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

func TestNBStageBatchedResolvesOnBatchCompletion(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, _ := batchedHandle(t, d, "viz", 4, -1)

	// Before activate the Async resolves with the immediate error instead of
	// hanging in a batch that will never flush.
	if _, err := h.NBStage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{1}).Wait(); err == nil {
		t.Fatal("NBStage before activate resolved nil")
	}

	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	var asyncs []*Async
	for b := 0; b < 4; b++ { // exactly one size-triggered batch
		asyncs = append(asyncs, h.NBStage(1, BlockMeta{Field: "v", BlockID: b * 10, Type: "raw"}, bytes.Repeat([]byte{byte(b)}, 32)))
	}
	for i, a := range asyncs {
		if _, err := a.Wait(); err != nil {
			t.Fatalf("async %d: %v", i, err)
		}
	}
	// A straggler below every trigger resolves at the explicit barrier.
	a := h.NBStage(1, BlockMeta{Field: "v", BlockID: 99, Type: "raw"}, []byte{7})
	if a.Test() {
		t.Fatal("straggler resolved before any trigger or barrier")
	}
	if err := h.Flush(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Execute(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

func TestStageBatchedPerBlockErrorDemux(t *testing.T) {
	d := deploy(t, 1)
	if err := d.admin.CreatePipeline(d.servers[0].Addr(), "fb", "failblock", nil); err != nil {
		t.Fatal(err)
	}
	h, reg := batchedHandle(t, d, "fb", 64, -1)

	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	// Block 1 fails on the backend; blocks 0, 2, 3 share its frame and must
	// land anyway, with the failure surfacing at the barrier.
	for b := 0; b < 4; b++ {
		if err := h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, bytes.Repeat([]byte{byte(b)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	err := h.Flush(1)
	if err == nil || !strings.Contains(err.Error(), "synthetic stage failure") {
		t.Fatalf("flush error = %v, want the synthetic block failure", err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["colza.stage.blocks{pipeline=fb}"]; got != 3 {
		t.Errorf("stage.blocks = %d, want 3", got)
	}
	if got := snap.Counters["colza.stage.failed{pipeline=fb}"]; got != 1 {
		t.Errorf("stage.failed = %d, want 1", got)
	}
	// One bad block must not burn a whole-batch retry for its batch-mates.
	if got := snap.Counters["colza.stage.retries{pipeline=fb}"]; got != 0 {
		t.Errorf("stage.retries = %d, want 0", got)
	}
	if got := d.servers[0].Obs.Snapshot().Counters["colza.staged.blocks{pipeline=fb}"]; got != 3 {
		t.Errorf("server staged %d blocks, want 3", got)
	}
	// The server's trace must not show a clean stage for a frame that lost a
	// block: the srv.stage span ends with the block's error.
	var spanErr string
	for _, rec := range d.servers[0].Obs.Trace() {
		if rec.Name == "srv.stage" && rec.Pipeline == "fb" {
			spanErr = rec.Err
		}
	}
	if !strings.Contains(spanErr, "synthetic stage failure") {
		t.Errorf("srv.stage span ended with %q, want the failed block's error", spanErr)
	}

	// The NBStage flavor: the failing block's own Async carries the error,
	// its batch-mates resolve nil, and the next barrier is clean.
	bad := h.NBStage(1, BlockMeta{Field: "v", BlockID: 1, Type: "raw"}, []byte{1})
	good := h.NBStage(1, BlockMeta{Field: "v", BlockID: 2, Type: "raw"}, []byte{2})
	if err := h.Flush(1); err != nil {
		t.Fatalf("NBStage failures must not reach the barrier: %v", err)
	}
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "synthetic stage failure") {
		t.Fatalf("failing block async = %v", err)
	}
	if _, err := good.Wait(); err != nil {
		t.Fatalf("batch-mate async = %v", err)
	}
}

func TestStageBatchedDeltaMismatchFallback(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, reg := batchedHandle(t, d, "viz", 8, -1)
	if err := h.SetCodec("delta"); err != nil {
		t.Fatal(err)
	}

	data := func(b, it int) []byte {
		buf := bytes.Repeat([]byte{byte(b)}, 256)
		buf[0] = byte(it) // differ per iteration so the delta is non-trivial
		return buf
	}
	stageIter := func(it uint64) {
		t.Helper()
		if _, err := h.Activate(it); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 2; b++ {
			if err := h.Stage(it, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data(b, int(it))); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Flush(it); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Execute(it); err != nil {
			t.Fatal(err)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatal(err)
		}
	}
	stageIter(1) // no base yet: self-contained deltas, bases remembered

	// The server forgets every base (as after an eviction or a membership
	// change); the client still remembers iteration 1 and will send
	// based deltas the server must refuse per block.
	d.servers[0].Provider.deltas.InvalidatePipeline("viz")
	stageIter(2) // per-block mismatch -> self-contained re-stage, no error

	snap := reg.Snapshot()
	if got := snap.Counters["codec.delta.fallback{pipeline=viz}"]; got < 1 {
		t.Errorf("delta fallback counter = %d, want >= 1", got)
	}
	if got := snap.Counters["colza.stage.blocks{pipeline=viz}"]; got != 4 {
		t.Errorf("stage.blocks = %d, want 4", got)
	}
	if got := d.servers[0].Obs.Snapshot().Counters["codec.delta.mismatch{pipeline=viz}"]; got < 1 {
		t.Errorf("server mismatch counter = %d, want >= 1", got)
	}
}

func TestStageBatchedIterationChangeFlushesOldBatch(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, reg := batchedHandle(t, d, "viz", 64, -1)

	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Stage(1, BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// A block for a later iteration on the same rank pushes the iteration-1
	// batch out first: frames never mix iterations. (The iteration-2 frame
	// itself fails — the server is still on iteration 1 — which is exactly
	// the stale-iteration protocol error.)
	if err := h.Stage(2, BlockMeta{Field: "v", BlockID: 0, Type: "raw"}, []byte{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	err := h.Flush(2)
	if err == nil || !strings.Contains(err.Error(), "no active iteration") {
		t.Fatalf("stale-iteration flush = %v, want the server's not-active refusal", err)
	}
	// The iteration-1 block landed despite the stale batch-mate.
	if got := d.servers[0].Obs.Snapshot().Counters["colza.staged.blocks{pipeline=viz}"]; got != 1 {
		t.Errorf("server staged %d blocks, want 1", got)
	}
	if got := reg.Snapshot().Counters["colza.stage.batch.flushes{pipeline=viz}"]; got != 2 {
		t.Errorf("flushes = %d, want 2 (one per iteration)", got)
	}
	if _, err := h.Execute(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

// TestNBStageBoundedGoroutines is the regression for the goroutine-per-call
// NBStage: 10k calls must never hold more than the stage window's worth of
// goroutines, on the unbatched distributed path, the batched path, and the
// solo handle alike.
func TestNBStageBoundedGoroutines(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")

	const calls = 10000
	run := func(t *testing.T, stage func(i int) *Async) {
		t.Helper()
		baseline := runtime.NumGoroutine()
		peak := 0
		asyncs := make([]*Async, 0, calls)
		for i := 0; i < calls; i++ {
			asyncs = append(asyncs, stage(i))
			if i%128 == 0 {
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
			}
		}
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
		for i, a := range asyncs {
			if _, err := a.Wait(); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		// The window bounds live goroutines; the slack absorbs server-side
		// handler and transport goroutines that come and go per RPC.
		if limit := baseline + nbStageWindow + 112; peak > limit {
			t.Fatalf("goroutines peaked at %d (baseline %d, limit %d): NBStage is spawning per call", peak, baseline, limit)
		}
	}

	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	t.Run("distributed", func(t *testing.T) {
		h := d.client.Handle("viz", d.servers[0].Addr())
		h.SetTimeout(5 * time.Second)
		t.Cleanup(h.Close)
		if _, err := h.Activate(1); err != nil {
			t.Fatal(err)
		}
		run(t, func(i int) *Async { return h.NBStage(1, BlockMeta{Field: "v", BlockID: i, Type: "raw"}, data) })
		if _, err := h.Execute(1); err != nil {
			t.Fatal(err)
		}
		if err := h.Deactivate(1); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("batched", func(t *testing.T) {
		h, _ := batchedHandle(t, d, "viz", 32, -1)
		h.SetTimeout(5 * time.Second)
		if _, err := h.Activate(2); err != nil {
			t.Fatal(err)
		}
		var flushErr error
		run(t, func(i int) *Async {
			a := h.NBStage(2, BlockMeta{Field: "v", BlockID: i, Type: "raw"}, data)
			if i == calls-1 {
				flushErr = h.Flush(2) // resolve the tail batch so Wait cannot hang
			}
			return a
		})
		if flushErr != nil {
			t.Fatal(flushErr)
		}
		if _, err := h.Execute(2); err != nil {
			t.Fatal(err)
		}
		if err := h.Deactivate(2); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("solo", func(t *testing.T) {
		h := d.client.SoloHandle("viz", d.servers[0].Addr())
		h.SetTimeout(5 * time.Second)
		if err := h.Activate(3); err != nil {
			t.Fatal(err)
		}
		run(t, func(i int) *Async { return h.NBStage(3, BlockMeta{Field: "v", BlockID: i, Type: "raw"}, data) })
		if _, err := h.Execute(3); err != nil {
			t.Fatal(err)
		}
		if err := h.Deactivate(3); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatcherDrainNoGoroutineLeak: after a batched burst drains and the
// handle closes, no batcher goroutine may linger.
func TestBatcherDrainNoGoroutineLeak(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	baseline := runtime.NumGoroutine()

	h, _ := batchedHandle(t, d, "viz", 8, time.Millisecond)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 200; b++ {
		if err := h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, bytes.Repeat([]byte{byte(b)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Flush(1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Execute(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	h.Close()

	deadline := time.Now().Add(2 * time.Second)
	n := 0
	for time.Now().Before(deadline) {
		if n = runtime.NumGoroutine(); n <= baseline+4 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines settled at %d, baseline %d: batcher leaked", n, baseline)
}

// TestStageCloseCancelsRetryBackoff: a Stage serving out a long retry
// backoff must return promptly when the handle closes.
func TestStageCloseCancelsRetryBackoff(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(time.Second)
	// Every attempt fails (nobody listens at the view's address), and the
	// backoff alone would hold Stage for half a minute.
	h.SetView(MemberView{Epoch: 1, Members: []string{"inproc://nowhere"}})
	h.SetStageRetry(RetryPolicy{Max: 4, Base: 30 * time.Second, Cap: 60 * time.Second})

	errCh := make(chan error, 1)
	go func() {
		errCh <- h.Stage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{1})
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the backoff start
	start := time.Now()
	h.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrHandleClosed) {
			t.Fatalf("stage returned %v, want ErrHandleClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("stage took %v after close, want prompt return", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stage still sleeping its backoff 5s after the handle closed")
	}
}

// TestActivateCloseCancelsRetryBackoff: an Activate that keeps failing
// (nobody listens at the contact) must return when the handle closes,
// within one RPC timeout, instead of serving out its view-retry schedule.
// The first arm backs off after a failed view refresh, the second after a
// failed prepare round over a pinned view.
func TestActivateCloseCancelsRetryBackoff(t *testing.T) {
	for name, pinned := range map[string]bool{"refresh": false, "prepare": true} {
		t.Run(name, func(t *testing.T) {
			d := deploy(t, 1)
			h := d.client.Handle("viz", "inproc://nowhere")
			h.SetTimeout(time.Second)
			if pinned {
				h.SetView(MemberView{Epoch: 1, Members: []string{"inproc://nowhere"}})
			}
			h.mu.Lock()
			h.viewRetry = RetryPolicy{Max: 8, Base: 30 * time.Second, Cap: 60 * time.Second}
			h.mu.Unlock()

			errCh := make(chan error, 1)
			go func() {
				_, err := h.Activate(1)
				errCh <- err
			}()
			time.Sleep(50 * time.Millisecond) // let the first round fail and the backoff start
			start := time.Now()
			h.Close()
			select {
			case err := <-errCh:
				if !errors.Is(err, ErrHandleClosed) {
					t.Fatalf("activate returned %v, want ErrHandleClosed", err)
				}
				if elapsed := time.Since(start); elapsed > time.Second {
					t.Fatalf("activate took %v after close, want under one RPC timeout", elapsed)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("activate still sleeping its backoff 5s after the handle closed")
			}
		})
	}
}

// The batched flavor: an in-flight batch retrying against a dead address
// drains promptly on close, and the barrier reports the closed handle.
func TestBatchedCloseCancelsRetryBackoff(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h, _ := batchedHandle(t, d, "viz", 1, -1)
	h.SetView(MemberView{Epoch: 1, Members: []string{"inproc://nowhere"}})
	h.SetStageRetry(RetryPolicy{Max: 4, Base: 30 * time.Second, Cap: 60 * time.Second})

	// MaxBlocks 1: the enqueue dispatches immediately and the send goroutine
	// enters its backoff.
	if err := h.Stage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	h.Close()
	err := h.Flush(1)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("flush took %v after close, want prompt drain", elapsed)
	}
	if !errors.Is(err, ErrHandleClosed) {
		t.Fatalf("flush after close = %v, want ErrHandleClosed", err)
	}
	// A closed handle refuses further staging outright.
	if err := h.Stage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{2}); !errors.Is(err, ErrHandleClosed) {
		t.Fatalf("stage on closed handle = %v, want ErrHandleClosed", err)
	}
}

// TestMigrateCallBackoffInjectable covers the checkpoint transfer's backoff
// (deactivate rounds and leave rounds go through one helper) through the
// injected clock: the schedule is observable without one real sleep, every
// failed attempt counts, and a remote refusal is final immediately.
func TestMigrateCallBackoffInjectable(t *testing.T) {
	d := deploy(t, 2)
	p := d.servers[0].Provider
	var mu sync.Mutex
	var sleeps []time.Duration
	p.SetTransferSleep(func(d time.Duration) {
		mu.Lock()
		sleeps = append(sleeps, d)
		mu.Unlock()
	})
	defer p.SetTransferSleep(nil)
	recorded := func() []time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return append([]time.Duration(nil), sleeps...)
	}
	errs := func() int64 { return d.servers[0].Obs.Snapshot().Counters["core.state.checkpoint.errors"] }

	// A checkpoint to a dead successor: three attempts under checkpointRetry,
	// so two backoffs — 25ms and 50ms, each plus up to 50% jitter — and none
	// of them on the wall clock.
	start := time.Now()
	ckpt, _ := json.Marshal(ckptMsg{Pipeline: "ghost", Origin: p.mi.Addr(), Iteration: 1, State: []byte("s")})
	if err := p.transfer("inproc://nowhere", ckpt); err == nil {
		t.Fatal("checkpoint to a dead address succeeded")
	}
	got := recorded()
	if len(got) != 2 {
		t.Fatalf("checkpoint retry recorded %d sleeps (%v), want 2", len(got), got)
	}
	for i, base := range []time.Duration{25 * time.Millisecond, 50 * time.Millisecond} {
		if got[i] < base || got[i] >= base+base/2 {
			t.Fatalf("checkpoint backoff %d = %v outside [%v, %v)", i, got[i], base, base+base/2)
		}
	}
	if n := errs(); n != 3 {
		t.Fatalf("checkpoint errors advanced by %d, want 3 (one per failed attempt)", n)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("three failed transfers took %v: a backoff really slept despite the injected clock", elapsed)
	}

	// A live peer that refuses (a malformed checkpoint) answers ClassRemote:
	// final for this target, no backoff at all.
	bad, _ := json.Marshal(ckptMsg{Pipeline: "ghost"})
	if err := p.transfer(d.servers[1].Addr(), bad); err == nil {
		t.Fatal("a checkpoint without an origin was accepted")
	}
	if after := len(recorded()); after != 2 {
		t.Fatalf("remote refusal slept %d times, want 0", after-2)
	}

	// Deactivate handlers of different pipelines checkpoint at the same
	// time: the helper's jitter source and sleep hook are shared state.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.transfer("inproc://nowhere", ckpt)
		}()
	}
	wg.Wait()
	if after := len(recorded()); after != 2+4*2 {
		t.Fatalf("four concurrent checkpoint transfers slept %d times, want 8", after-2)
	}
}

// TestBatchConfigDefaults: there is nothing left to configure. SetBatching
// with the (empty) BatchConfig does not engage a batcher on a handle whose
// transport stages per block, and a batcher runs on the documented triggers.
func TestBatchConfigDefaults(t *testing.T) {
	d := deploy(t, 1)
	h := d.client.Handle("viz", d.servers[0].Addr())
	t.Cleanup(h.Close)
	h.SetBatching(BatchConfig{})
	if h.batch != nil {
		t.Fatal("SetBatching engaged a batcher on an in-process handle")
	}
	b := newStageBatcher(h)
	if b.maxBlocks != 64 || b.maxBytes != 1<<20 || b.maxAge != 2*time.Millisecond || b.window != 4 {
		t.Fatalf("batcher triggers = %d blocks, %d bytes, %v, window %d; DESIGN.md §7.3 documents 64, 1 MiB, 2ms, 4",
			b.maxBlocks, b.maxBytes, b.maxAge, b.window)
	}
}

// TestBatchedCloseFailsPendingBlocks closes a handle while blocks sit in a
// never-triggering pending batch: every undelivered block must fail with
// ErrHandleClosed (sync errors at the barrier, NBStage on its Async) and the
// batch-owned buffers — including the delta path's remembered originals —
// must go back to the pool rather than leak.
func TestBatchedCloseFailsPendingBlocks(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h, _ := batchedHandle(t, d, "viz", 1<<20, -1)
	if err := h.SetCodec("delta"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0x5a}, 2048)
	for b := 0; b < 4; b++ {
		if err := h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data); err != nil {
			t.Fatal(err)
		}
	}
	a := h.NBStage(1, BlockMeta{Field: "v", BlockID: 4, Type: "raw"}, data)
	h.Close()
	if _, err := a.Wait(); !errors.Is(err, ErrHandleClosed) {
		t.Fatalf("pending NBStage after close: %v, want ErrHandleClosed", err)
	}
	if err := h.Flush(1); !errors.Is(err, ErrHandleClosed) {
		t.Fatalf("Flush after close: %v, want the pending blocks' ErrHandleClosed", err)
	}
}
