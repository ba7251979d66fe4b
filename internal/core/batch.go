package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"colza/internal/bufpool"
	"colza/internal/obs"
)

// BatchConfig tunes the per-handle stage batcher (SetBatching). Zero
// fields take the defaults; batching itself is strictly opt-in — a handle
// without SetBatching stages every block on the unchanged v2 wire path.
type BatchConfig struct {
	// MaxBlocks flushes a rank's pending batch once it holds this many
	// blocks (default 64).
	MaxBlocks int
	// MaxBytes flushes once the assembled encoded payload reaches this
	// size; it is also the assembly buffer's initial capacity (default 1 MiB).
	MaxBytes int
	// MaxAge flushes a non-empty batch this long after its first block, so
	// a trickle of blocks never waits for a size trigger (default 2ms;
	// negative disables the age trigger).
	MaxAge time.Duration
	// Window bounds the batches in flight at once — and with them the send
	// goroutines, which is the whole point: no goroutine per block, no
	// goroutine bomb (default 4).
	Window int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxBlocks <= 0 {
		c.MaxBlocks = 64
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1 << 20
	}
	if c.MaxAge == 0 {
		c.MaxAge = 2 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 4
	}
	return c
}

// pendingBlock is one enqueued block: its wire record plus everything the
// completion path needs — the original length for metrics, a pooled copy
// of the original bytes when the delta machinery will want them back
// (Remember, or the self-contained fallback resend), and the Async to
// resolve for NBStage callers.
type pendingBlock struct {
	rec     stageBatchRec
	dataLen int
	used    codecUsed
	orig    []byte // pooled; non-nil iff rec.CI.Remember || rec.CI.HasBase
	a       *Async // non-nil for NBStage; nil errors go to the barrier
}

// pendingBatch accumulates blocks bound for one server rank within one
// iteration. payload is the pooled assembly buffer holding the
// concatenated encoded payloads in record order.
type pendingBatch struct {
	target  int
	addr    string
	it      uint64
	recs    []stageBatchRec
	blocks  []pendingBlock
	payload []byte
	gen     uint64
	timer   *time.Timer
}

// stageBatcher coalesces a handle's staged blocks into per-rank batches
// (DESIGN.md §12). Enqueue copies the caller's data into batch-owned
// pooled storage, so — unlike the unbatched RDMA-semantics path — the
// caller's buffer is free for reuse the moment enqueue returns. Errors of
// sync Stage calls are deferred to the next barrier (Flush / Execute /
// Deactivate); NBStage errors resolve on the block's own Async.
type stageBatcher struct {
	h   *DistributedPipelineHandle
	cfg BatchConfig

	mu      sync.Mutex
	pending map[int]*pendingBatch
	gen     uint64
	closed  bool

	window   chan struct{} // in-flight batch slots; acquired before the send goroutine spawns
	inflight sync.WaitGroup

	errMu sync.Mutex
	errs  []error

	ctrBlocks  *obs.Counter
	ctrBytes   *obs.Counter
	ctrFlushes *obs.Counter
	ctrFull    *obs.Counter
	ctrAge     *obs.Counter
	gWindow    *obs.Gauge
}

func newStageBatcher(h *DistributedPipelineHandle, cfg BatchConfig) *stageBatcher {
	cfg = cfg.withDefaults()
	reg := h.c.observer()
	return &stageBatcher{
		h:          h,
		cfg:        cfg,
		pending:    make(map[int]*pendingBatch),
		window:     make(chan struct{}, cfg.Window),
		ctrBlocks:  reg.Counter("colza.stage.batch.blocks", "pipeline", h.pipeline),
		ctrBytes:   reg.Counter("colza.stage.batch.bytes", "pipeline", h.pipeline),
		ctrFlushes: reg.Counter("colza.stage.batch.flushes", "pipeline", h.pipeline),
		ctrFull:    reg.Counter("colza.stage.batch.full", "pipeline", h.pipeline),
		ctrAge:     reg.Counter("colza.stage.batch.age", "pipeline", h.pipeline),
		gWindow:    reg.Gauge("colza.stage.batch.window", "pipeline", h.pipeline),
	}
}

// resolveBlock delivers one block's outcome: to its Async for NBStage, or
// into the barrier error list for sync Stage.
func (b *stageBatcher) resolveBlock(blk *pendingBlock, err error) {
	if blk.a != nil {
		blk.a.ch <- asyncRes{err: err}
		return
	}
	if err != nil {
		b.errMu.Lock()
		b.errs = append(b.errs, err)
		b.errMu.Unlock()
	}
}

// enqueue adds one block to its target rank's pending batch, dispatching
// any batch a trigger fires for. It blocks only when the in-flight window
// is full — the batcher's backpressure. For a == nil (sync Stage) the
// returned error covers immediate conditions (no view, closed handle);
// send failures surface at the barrier.
func (b *stageBatcher) enqueue(it uint64, meta BlockMeta, data []byte, a *Async) error {
	h := b.h
	fail := func(err error) error {
		if a != nil {
			b.resolveBlock(&pendingBlock{a: a}, err)
			return nil
		}
		return err
	}
	h.mu.Lock()
	view := h.view
	placement := h.placement
	h.mu.Unlock()
	if h.isClosed() {
		return fail(fmt.Errorf("colza: stage: %w", ErrHandleClosed))
	}
	if len(view.Members) == 0 {
		return fail(fmt.Errorf("colza: stage before activate (no pinned view)"))
	}
	target := placement(meta, len(view.Members))
	if target < 0 || target >= len(view.Members) {
		return fail(fmt.Errorf("colza: placement selected invalid rank %d", target))
	}
	// Encode outside the batcher lock: this copies (or compresses) the
	// caller's bytes into storage the batch owns, so data is free for reuse
	// as soon as enqueue returns.
	var (
		wire       []byte
		pooledWire bool
		ci         stageCodecInfo
		used       codecUsed
	)
	if h.codec.enabled() {
		wire, pooledWire, ci, used.c, used.encNs = h.codec.encodeStage(h.pipeline, it, meta, data, false)
	} else {
		wire, ci = data, stageCodecInfo{Uncompressed: uint64(len(data))}
	}
	var orig []byte
	if ci.Remember || ci.HasBase {
		// The delta machinery needs the original bytes after the RPC lands
		// (Remember) or fails (self-contained resend); the caller's buffer
		// won't be ours to read by then.
		orig = bufpool.Get(len(data))
		copy(orig, data)
	}
	blk := pendingBlock{
		rec:     stageBatchRec{CI: ci, Meta: meta, PayloadLen: len(wire)},
		dataLen: len(data),
		used:    used,
		orig:    orig,
		a:       a,
	}

	var ready []*pendingBatch
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		if pooledWire {
			bufpool.Put(wire)
		}
		if orig != nil {
			bufpool.Put(orig)
		}
		return fail(fmt.Errorf("colza: stage: %w", ErrHandleClosed))
	}
	pb := b.pending[target]
	if pb != nil && pb.it != it {
		// Iteration advanced on this rank: the old batch goes out first so
		// the server never sees interleaved iterations in one frame.
		b.detachLocked(pb)
		ready = append(ready, pb)
		pb = nil
	}
	if pb == nil {
		pb = &pendingBatch{
			target:  target,
			addr:    view.Members[target].RPC,
			it:      it,
			payload: bufpool.Get(b.cfg.MaxBytes)[:0],
			gen:     b.gen,
		}
		b.gen++
		b.pending[target] = pb
		if b.cfg.MaxAge > 0 {
			gen := pb.gen
			pb.timer = time.AfterFunc(b.cfg.MaxAge, func() { b.flushAged(target, gen) })
		}
	}
	pb.payload = append(pb.payload, wire...)
	pb.recs = append(pb.recs, blk.rec)
	pb.blocks = append(pb.blocks, blk)
	b.ctrBlocks.Inc()
	b.ctrBytes.Add(int64(len(data)))
	if len(pb.recs) >= b.cfg.MaxBlocks || len(pb.payload) >= b.cfg.MaxBytes {
		b.ctrFull.Inc()
		b.detachLocked(pb)
		ready = append(ready, pb)
	}
	b.mu.Unlock()
	if pooledWire {
		bufpool.Put(wire)
	}
	for _, rp := range ready {
		b.dispatch(rp)
	}
	return nil
}

// detachLocked removes a batch from the pending map and disarms its age
// timer; the caller dispatches it outside the lock.
func (b *stageBatcher) detachLocked(pb *pendingBatch) {
	delete(b.pending, pb.target)
	if pb.timer != nil {
		pb.timer.Stop()
		pb.timer = nil
	}
}

// flushAged is the age-trigger callback; gen guards against the slot
// having been reused by a younger batch after a size flush.
func (b *stageBatcher) flushAged(target int, gen uint64) {
	b.mu.Lock()
	pb := b.pending[target]
	if pb == nil || pb.gen != gen {
		b.mu.Unlock()
		return
	}
	b.detachLocked(pb)
	b.mu.Unlock()
	b.ctrAge.Inc()
	b.dispatch(pb)
}

// dispatch acquires a window slot (blocking: the bound on in-flight
// batches is the caller's backpressure) and sends the batch on its own
// goroutine. A handle close while waiting fails the batch without sending.
func (b *stageBatcher) dispatch(pb *pendingBatch) {
	b.ctrFlushes.Inc()
	b.inflight.Add(1)
	select {
	case b.window <- struct{}{}:
	case <-b.h.closed:
		b.finish(pb, ErrHandleClosed)
		b.inflight.Done()
		return
	}
	b.gWindow.Inc()
	go func() {
		defer func() {
			b.gWindow.Dec()
			<-b.window
			b.inflight.Done()
		}()
		b.send(pb)
	}()
}

// finish fails every block of a batch with one error and releases all
// batch-owned buffers.
func (b *stageBatcher) finish(pb *pendingBatch, err error) {
	b.h.stageMetrics().failed.Add(int64(len(pb.blocks)))
	for i := range pb.blocks {
		blk := &pb.blocks[i]
		if blk.orig != nil {
			bufpool.Put(blk.orig)
			blk.orig = nil
		}
		b.resolveBlock(blk, fmt.Errorf("colza: stage block %d on %s: %w", blk.rec.Meta.BlockID, pb.addr, err))
	}
	if pb.payload != nil {
		bufpool.Put(pb.payload)
		pb.payload = nil
	}
}

// send performs one batch RPC under the handle's stage retry policy —
// whole-batch retries for transport-level failures (the frame either never
// landed or never answered), per-block demultiplexing once a response
// arrives. Buffer teardown covers every exit path: the frame and the
// exposed payload are released here, per-block orig copies by the
// completion helpers.
func (b *stageBatcher) send(pb *pendingBatch) {
	h := b.h
	m := h.stageMetrics()
	reg := m.reg
	h.mu.Lock()
	timeout := h.timeout
	retry := h.stageRetry
	h.mu.Unlock()
	sp := reg.StartSpan("stage_batch", SpanKeyFor(h.pipeline, pb.it))
	cls := h.c.mi.Class()
	bulk := cls.Expose(pb.payload)
	frame := appendStageBatchMsg(bufpool.Get(stageBatchMsgSize(h.pipeline, pb.recs, bulk))[:0], h.pipeline, pb.it, pb.recs, bulk)
	var (
		resp []byte
		err  error
	)
	start := time.Now()
	for attempt := 0; attempt < retry.attempts(); attempt++ {
		if attempt > 0 {
			m.retries.Inc()
			sleep := h.backoff(retry, attempt-1)
			if ra := BusyRetryAfter(err); ra > sleep {
				sleep = ra
			}
			if !h.sleepInterruptible(sleep) {
				err = ErrHandleClosed
				break
			}
		}
		resp, err = h.c.call(pb.addr, "stage_batch", frame, timeout)
		if err == nil || !Retryable(err) {
			break
		}
	}
	rpcNs := time.Since(start).Nanoseconds()
	cls.Release(bulk)
	bufpool.Put(frame)
	if err != nil {
		sp.End(err)
		b.finish(pb, err)
		return
	}
	berrs, derr := decodeStageBatchResp(resp, len(pb.blocks))
	if derr != nil {
		sp.End(derr)
		b.finish(pb, derr)
		return
	}
	blockErr := make(map[int]stageBatchBlockErr, len(berrs))
	for _, e := range berrs {
		blockErr[e.Index] = e
	}
	totalWire := len(pb.payload)
	bufpool.Put(pb.payload)
	pb.payload = nil
	for i := range pb.blocks {
		blk := &pb.blocks[i]
		if e, bad := blockErr[i]; bad {
			b.completeError(pb, blk, e)
			continue
		}
		// The RPC time is shared by the whole batch; attribute it to each
		// block by its share of the wire bytes so the adaptive selector
		// sees a sane per-block link cost.
		share := rpcNs
		if totalWire > 0 {
			share = rpcNs * int64(blk.rec.PayloadLen) / int64(totalWire)
		}
		h.codec.recordStaged(reg, h.pipeline, pb.it, blk.rec.Meta, blk.orig, blk.dataLen,
			blk.rec.CI, blk.used.c, blk.rec.PayloadLen, blk.used.encNs, share)
		m.bytes.Add(int64(blk.dataLen))
		m.blocks.Inc()
		if blk.orig != nil {
			bufpool.Put(blk.orig)
			blk.orig = nil
		}
		b.resolveBlock(blk, nil)
	}
	sp.End(nil)
}

// completeError settles one demultiplexed block failure. A delta base
// mismatch re-stages the block self-contained through the per-block path
// (the batch's own window slot bounds this work); anything else is final
// for the block but invisible to its batch-mates.
func (b *stageBatcher) completeError(pb *pendingBatch, blk *pendingBlock, e stageBatchBlockErr) {
	h := b.h
	m := h.stageMetrics()
	if e.Kind == stageBatchErrDeltaMismatch && blk.rec.CI.HasBase && blk.orig != nil {
		m.deltaFallback.Inc()
		err := h.stageBlock(pb.it, blk.rec.Meta, blk.orig, true)
		bufpool.Put(blk.orig)
		blk.orig = nil
		b.resolveBlock(blk, err)
		return
	}
	if blk.orig != nil {
		bufpool.Put(blk.orig)
		blk.orig = nil
	}
	m.failed.Inc()
	b.resolveBlock(blk, fmt.Errorf("colza: stage block %d on %s: %s", blk.rec.Meta.BlockID, pb.addr, e.Msg))
}

// flush dispatches every pending batch, waits for all in-flight sends to
// drain, and returns the accumulated sync-Stage errors — the barrier
// Execute, Deactivate, and the explicit Flush(it) await.
func (b *stageBatcher) flush() error {
	b.mu.Lock()
	ready := make([]*pendingBatch, 0, len(b.pending))
	for _, pb := range b.pending {
		ready = append(ready, pb)
	}
	for _, pb := range ready {
		b.detachLocked(pb)
	}
	b.mu.Unlock()
	for _, pb := range ready {
		b.dispatch(pb)
	}
	b.inflight.Wait()
	b.errMu.Lock()
	errs := b.errs
	b.errs = nil
	b.errMu.Unlock()
	return errors.Join(errs...)
}

// close fails every not-yet-dispatched block with ErrHandleClosed.
// In-flight sends observe the handle's closed channel themselves (their
// retry backoff is interruptible) and drain on their own.
func (b *stageBatcher) close() {
	b.mu.Lock()
	b.closed = true
	ready := make([]*pendingBatch, 0, len(b.pending))
	for _, pb := range b.pending {
		ready = append(ready, pb)
	}
	for _, pb := range ready {
		b.detachLocked(pb)
	}
	b.mu.Unlock()
	for _, pb := range ready {
		b.finish(pb, ErrHandleClosed)
	}
}
