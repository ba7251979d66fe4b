package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"colza/internal/bufpool"
	"colza/internal/mercury"
	"colza/internal/obs"
)

// The batcher's triggers. A pending batch goes out when it holds
// batchMaxBlocks blocks or batchMaxBytes of assembled payload (twice that
// sizes its assembly storage; see assembly), or batchMaxAge after its first
// block, so a trickle of blocks never waits for a size trigger. batchWindow
// bounds the batches in flight at once: it is the number of the batcher's
// senders, long-lived goroutines that each send one batch at a time — no
// goroutine per block, nor per batch. Which handles run a batcher at all is
// Client.Handle's decision (DESIGN.md §7.3).
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
// iteration. payload holds the concatenated encoded payloads in record
// order, in the batch's assembly storage: a span of the arena reservation
// resv, or, when resv.ID is 0 (bulk ids start at 1), a pooled heap buffer.
type pendingBatch struct {
	addr    string
	it      uint64
	recs    []stageBatchRec
	blocks  []pendingBlock
	payload []byte
	resv    mercury.Bulk
	born    time.Time // when its first block arrived, for the age trigger
}

// batchSlot is one target rank's place in the batcher: the batch pending
// for it, if any, and the age timer, made once per slot and re-armed for
// every batch the slot holds.
type batchSlot struct {
	pb    *pendingBatch
	timer *time.Timer
}

// stageBatcher coalesces a handle's staged blocks into per-rank batches
// (DESIGN.md §7.3). Enqueue copies the caller's data into batch-owned
// storage, so the caller's buffer is free for reuse the moment enqueue
// returns. Errors of sync Stage calls are deferred to the next
// barrier (Flush / Execute / Deactivate); NBStage errors resolve on the
// block's own Async.
type stageBatcher struct {
	h *DistributedPipelineHandle

	// The triggers and the sender count, set from the constants above; they
	// are fields only so that in-package tests can pin frame boundaries
	// (small frames, no age timer) and the window before the first block.
	maxBlocks, maxBytes int
	maxAge              time.Duration
	window              int

	mu      sync.Mutex
	pending map[int]*batchSlot // by target rank
	closed  bool
	// spare holds batches done with (recycle), kept with their recs and
	// blocks capacity for the next batch to take: at most one per slot
	// and sender are ever out at once, so it stays that small.
	spare []*pendingBatch

	// work hands a dispatched batch to an idle sender; the senders start
	// with the first dispatch and exit when the handle closes.
	work     chan *pendingBatch
	senders  sync.Once
	inflight sync.WaitGroup

	errMu sync.Mutex
	errs  []error

	ctrBlocks  *obs.Counter
	ctrBytes   *obs.Counter
	ctrFlushes *obs.Counter
	ctrFull    *obs.Counter
	ctrAge     *obs.Counter
	ctrOutgrow *obs.Counter
	gWindow    *obs.Gauge
}

func newStageBatcher(h *DistributedPipelineHandle) *stageBatcher {
	reg := h.c.observer()
	return &stageBatcher{
		h:          h,
		maxBlocks:  batchMaxBlocks,
		maxBytes:   batchMaxBytes,
		maxAge:     batchMaxAge,
		window:     batchWindow,
		pending:    make(map[int]*batchSlot),
		work:       make(chan *pendingBatch),
		ctrBlocks:  reg.Counter("colza.stage.batch.blocks", "pipeline", h.pipeline),
		ctrBytes:   reg.Counter("colza.stage.batch.bytes", "pipeline", h.pipeline),
		ctrFlushes: reg.Counter("colza.stage.batch.flushes", "pipeline", h.pipeline),
		ctrFull:    reg.Counter("colza.stage.batch.full", "pipeline", h.pipeline),
		ctrAge:     reg.Counter("colza.stage.batch.age", "pipeline", h.pipeline),
		ctrOutgrow: reg.Counter("colza.stage.batch.outgrown", "pipeline", h.pipeline),
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

	// At most two batches go out per enqueue: the previous iteration's and
	// a full one.
	var readyBuf [2]*pendingBatch
	ready := readyBuf[:0]
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
	slot := b.pending[target]
	if slot == nil {
		slot = &batchSlot{}
		b.pending[target] = slot
	}
	pb := slot.pb
	if pb != nil && pb.it != it {
		// Iteration advanced on this rank: the old batch goes out first so
		// the server never sees interleaved iterations in one frame.
		b.detachLocked(slot)
		ready = append(ready, pb)
		pb = nil
	}
	if pb == nil {
		pb = b.newBatchLocked()
		pb.addr, pb.it, pb.born = addr, it, time.Now()
		pb.payload, pb.resv = b.assembly(len(wire))
		slot.pb = pb
		if b.maxAge > 0 {
			if slot.timer == nil {
				slot.timer = time.AfterFunc(b.maxAge, func() { b.flushAged(target) })
			} else {
				slot.timer.Reset(b.maxAge)
			}
		}
	}
	if len(pb.payload)+len(wire) > cap(pb.payload) {
		b.outgrow(pb, len(wire))
	}
	pb.payload = append(pb.payload, wire...)
	pb.recs = append(pb.recs, blk.rec)
	pb.blocks = append(pb.blocks, blk)
	b.ctrBlocks.Inc()
	b.ctrBytes.Add(int64(len(data)))
	if len(pb.recs) >= b.maxBlocks || len(pb.payload) >= b.maxBytes {
		b.ctrFull.Inc()
		b.detachLocked(slot)
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

// newBatchLocked returns an empty batch, a spare one when there is one.
func (b *stageBatcher) newBatchLocked() *pendingBatch {
	if n := len(b.spare); n > 0 {
		pb := b.spare[n-1]
		b.spare[n-1] = nil
		b.spare = b.spare[:n-1]
		return pb
	}
	return &pendingBatch{}
}

// recycle takes back a batch that send or finish is done with: its records
// and blocks are cleared — no Async, pooled buffer or metadata of theirs
// outlives the batch — and their capacity is kept for the next batch.
func (b *stageBatcher) recycle(pb *pendingBatch) {
	clear(pb.recs)
	clear(pb.blocks)
	*pb = pendingBatch{recs: pb.recs[:0], blocks: pb.blocks[:0]}
	b.mu.Lock()
	b.spare = append(b.spare, pb)
	b.mu.Unlock()
}

// assembly returns empty storage, holding at least need bytes, for a batch
// to assemble its payload in: a reservation in the endpoint's shared arena,
// which sendStage then exposes in place, or — without an arena, or when the
// arena declines — a pooled heap buffer, which Expose copies into the arena
// (if there is one). One rule sizes both: twice maxBytes, so that whatever
// a batch holds before its size trigger fires (less than maxBytes) plus any
// block up to maxBytes fits; or need, if larger.
func (b *stageBatcher) assembly(need int) ([]byte, mercury.Bulk) {
	n := max(2*b.maxBytes, need)
	if r, span := b.h.c.mi.Class().Reserve(n); span != nil {
		return span[:0], r
	}
	return bufpool.Get(n)[:0], mercury.Bulk{}
}

// outgrow moves a batch whose next block of n bytes does not fit its
// assembly storage into storage that does. Only a block larger than maxBytes
// gets here, and frames are cut where they would have been anyway.
func (b *stageBatcher) outgrow(pb *pendingBatch, n int) {
	b.ctrOutgrow.Inc()
	payload, resv := b.assembly(len(pb.payload) + n)
	payload = append(payload, pb.payload...)
	b.freeAssembly(pb)
	pb.payload, pb.resv = payload, resv
}

// freeAssembly hands a batch's assembly storage back: the reservation to the
// arena (a no-op once sendStage has released it), the heap buffer to the
// pool. The batch must not touch payload afterwards.
func (b *stageBatcher) freeAssembly(pb *pendingBatch) {
	if pb.resv.ID != 0 {
		b.h.c.mi.Class().Release(pb.resv)
	} else if pb.payload != nil {
		bufpool.Put(pb.payload)
	}
	pb.payload, pb.resv = nil, mercury.Bulk{}
}

// detachLocked takes the pending batch out of its slot and disarms the
// slot's age timer; the caller dispatches the batch outside the lock (or
// fails it and marks it done). The batch counts as in flight from here,
// under the lock, so a flush that detaches after it also waits for it —
// even for a batch the age trigger detached and has yet to dispatch.
func (b *stageBatcher) detachLocked(slot *batchSlot) {
	b.inflight.Add(1)
	slot.pb = nil
	if slot.timer != nil {
		slot.timer.Stop()
	}
}

// flushAged is the age-trigger callback. The slot's timer is re-armed for
// each batch, so a firing meant for a batch that has since gone out by
// size may find a younger one in the slot: that one is left to its own
// firing.
func (b *stageBatcher) flushAged(target int) {
	b.mu.Lock()
	slot := b.pending[target]
	if slot == nil || slot.pb == nil || time.Since(slot.pb.born) < b.maxAge {
		b.mu.Unlock()
		return
	}
	pb := slot.pb
	b.detachLocked(slot)
	b.mu.Unlock()
	b.ctrAge.Inc()
	b.dispatch(pb)
}

// dispatch hands the batch to an idle sender, blocking until one is free:
// the bound on in-flight batches is the caller's backpressure. A handle
// close while waiting fails the batch without sending.
func (b *stageBatcher) dispatch(pb *pendingBatch) {
	b.ctrFlushes.Inc()
	b.senders.Do(func() {
		for i := 0; i < b.window; i++ {
			go b.sender()
		}
	})
	select {
	case b.work <- pb:
	case <-b.h.closed:
		b.finish(pb, ErrHandleClosed)
		b.recycle(pb)
		b.inflight.Done()
	}
}

// sender sends the batches dispatch hands it, one at a time, until the
// handle closes. Senders live as long as the handle, so each keeps the
// stack the send path grew it instead of growing a fresh one per batch.
func (b *stageBatcher) sender() {
	for {
		select {
		case pb := <-b.work:
			b.gWindow.Inc()
			b.send(pb)
			b.recycle(pb)
			b.gWindow.Dec()
			b.inflight.Done()
		case <-b.h.closed:
			return
		}
	}
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
	b.freeAssembly(pb)
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
	berrs, err := h.sendStage(pb.it, pb.addr, pb.recs, pb.payload, pb.resv)
	b.freeAssembly(pb)
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
	var ready []*pendingBatch
	for _, slot := range b.pending {
		if slot.pb != nil {
			ready = append(ready, slot.pb)
			b.detachLocked(slot)
		}
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
		b.recycle(pb)
		b.inflight.Done()
	}
}
