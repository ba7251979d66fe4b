package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"colza/internal/bufpool"
	"colza/internal/obs"
)

// The batcher's triggers. A pending batch goes out when it holds
// batchMaxBlocks blocks or batchMaxBytes of assembled payload (also the
// assembly buffer's initial capacity), or batchMaxAge after its first block,
// so a trickle of blocks never waits for a size trigger. batchWindow bounds
// the batches in flight at once — and with them the send goroutines: no
// goroutine per block. Which handles run a batcher at all is Client.Handle's
// decision (DESIGN.md §7.3).
const (
	batchMaxBlocks = 64
	batchMaxBytes  = 1 << 20
	batchMaxAge    = 2 * time.Millisecond
	batchWindow    = 4
)

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
// (DESIGN.md §7.3). Enqueue copies the caller's data into batch-owned
// pooled storage, so the caller's buffer is free for reuse the moment
// enqueue returns. Errors of sync Stage calls are deferred to the next
// barrier (Flush / Execute / Deactivate); NBStage errors resolve on the
// block's own Async.
type stageBatcher struct {
	h *DistributedPipelineHandle

	// The triggers, set from the constants above; they are fields only so
	// that in-package tests can pin frame boundaries (small frames, no age
	// timer) before the first block.
	maxBlocks, maxBytes int
	maxAge              time.Duration

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

func newStageBatcher(h *DistributedPipelineHandle) *stageBatcher {
	reg := h.c.observer()
	return &stageBatcher{
		h:          h,
		maxBlocks:  batchMaxBlocks,
		maxBytes:   batchMaxBytes,
		maxAge:     batchMaxAge,
		pending:    make(map[int]*pendingBatch),
		window:     make(chan struct{}, batchWindow),
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
	target, addr, err := h.stageTarget(meta)
	if err != nil {
		return fail(err)
	}
	// Encode outside the batcher lock: this copies (or compresses) the
	// caller's bytes into storage the batch owns, so data is free for reuse
	// as soon as enqueue returns.
	wire, pooledWire, ci, used := h.codec.encodeStage(h.pipeline, it, meta, data, false)
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
			addr:    addr,
			it:      it,
			payload: bufpool.Get(b.maxBytes)[:0],
			gen:     b.gen,
		}
		b.gen++
		b.pending[target] = pb
		if b.maxAge > 0 {
			gen := pb.gen
			pb.timer = time.AfterFunc(b.maxAge, func() { b.flushAged(target, gen) })
		}
	}
	pb.payload = append(pb.payload, wire...)
	pb.recs = append(pb.recs, blk.rec)
	pb.blocks = append(pb.blocks, blk)
	b.ctrBlocks.Inc()
	b.ctrBytes.Add(int64(len(data)))
	if len(pb.recs) >= b.maxBlocks || len(pb.payload) >= b.maxBytes {
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

// send puts one batch on the wire through the handle's shared send path
// (sendStage: whole-frame retries for transport-level failures, the frame
// and the exposed payload released there) and demultiplexes the response per
// block. Per-block orig copies are released by the completion helpers.
func (b *stageBatcher) send(pb *pendingBatch) {
	h := b.h
	m := h.stageMetrics()
	reg := m.reg
	sp := reg.StartSpan("stage.flush", SpanKeyFor(h.pipeline, pb.it))
	berrs, err := h.sendStage(pb.it, pb.addr, pb.recs, pb.payload)
	if err != nil {
		sp.End(err)
		b.finish(pb, err)
		return
	}
	// The error list is empty for almost every batch; index it only when not.
	var blockErr map[int]stageBatchBlockErr
	if len(berrs) > 0 {
		blockErr = make(map[int]stageBatchBlockErr, len(berrs))
		for _, e := range berrs {
			blockErr[e.Index] = e
		}
	}
	bufpool.Put(pb.payload)
	pb.payload = nil
	for i := range pb.blocks {
		blk := &pb.blocks[i]
		if e, bad := blockErr[i]; bad {
			b.completeError(pb, blk, e)
			continue
		}
		h.codec.recordStaged(reg, h.pipeline, pb.it, blk.rec.Meta, blk.orig, blk.dataLen,
			blk.rec.CI, blk.used, blk.rec.PayloadLen)
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
	b.resolveBlock(blk, fmt.Errorf("colza: stage block %d on %s: %w", blk.rec.Meta.BlockID, pb.addr, e.err()))
}

// detachAll empties the pending map and returns what it held; closing also
// refuses every later enqueue.
func (b *stageBatcher) detachAll(closing bool) []*pendingBatch {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = b.closed || closing
	ready := make([]*pendingBatch, 0, len(b.pending))
	for _, pb := range b.pending {
		b.detachLocked(pb)
		ready = append(ready, pb)
	}
	return ready
}

// flush dispatches every pending batch, waits for all in-flight sends to
// drain, and returns the accumulated sync-Stage errors — the barrier
// Execute, Deactivate, and the explicit Flush(it) await.
func (b *stageBatcher) flush() error {
	for _, pb := range b.detachAll(false) {
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
	for _, pb := range b.detachAll(true) {
		b.finish(pb, ErrHandleClosed)
	}
}
