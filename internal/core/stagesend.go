package core

import (
	"fmt"

	"colza/internal/bufpool"
	"colza/internal/mercury"
)

// This file is the client's one stage send path (DESIGN.md §7.3). A handle
// stages a block either on its own (stageBlock: a frame of one record over
// the caller's buffer) or through the coalescing batcher (batch.go: a frame
// per server rank over a batch-owned buffer); both hand their frame to
// sendStage, which owns expose → frame → retry → response → release.

// stageTarget resolves the server a block goes to under the pinned view.
func (h *DistributedPipelineHandle) stageTarget(meta BlockMeta) (rank int, addr string, err error) {
	h.mu.Lock()
	view := h.view
	h.mu.Unlock()
	if len(view.Members) == 0 {
		return 0, "", fmt.Errorf("colza: stage before activate (no pinned view)")
	}
	rank = DefaultPlacement(meta, len(view.Members))
	return rank, view.Members[rank], nil
}

// sendStage sends one stage frame: recs over payload, to addr. It exposes
// payload in place: through resv, the arena reservation the batcher
// assembled payload in, when resv.ID is not 0 (the arena holds the only
// copy), and otherwise as it lies (a region of at most mercury's eager
// limit rides in the frame, a larger or arena-published one is pulled). It
// runs the RPC under the handle's stage retry policy — whole-frame retries
// for transient failures (timeout, unreachable, shed at admission), never
// sooner than a busy server's Retry-After, every wait cut short when the
// handle closes — and releases the region, resv with it, before returning,
// so the caller may recycle payload at once. A retry after a timeout may
// duplicate blocks the server already staged: staging is at-least-once.
//
// err is a frame-level failure: no block is known to have landed. Otherwise
// berrs lists the blocks the server refused, by record index.
func (h *DistributedPipelineHandle) sendStage(it uint64, addr string, recs []stageBatchRec, payload []byte, resv mercury.Bulk) (berrs []stageBatchBlockErr, err error) {
	h.mu.Lock()
	timeout := h.timeout
	retry := h.stageRetry
	h.mu.Unlock()
	cls := h.c.mi.Class()
	var bulk mercury.Bulk
	if resv.ID != 0 {
		bulk = cls.ExposeReserved(resv, len(payload))
	} else {
		bulk = cls.Expose(payload)
	}
	// The frame's head is pooled: the call is synchronous and the transport
	// copies or writes it out on send, so it is recycled on return — across
	// retries. A region that rides eagerly is the tail, sent from payload
	// itself.
	frame, tail := appendStageFrame(bufpool.Get(stageBatchMsgSize(h.pipeline, recs, bulk))[:0], h.pipeline, it, recs, bulk)
	defer func() {
		cls.Release(bulk)
		bufpool.Put(frame)
	}()
	var resp []byte
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			h.stageMetrics().retries.Inc()
			sleep := h.backoff(retry, attempt-1)
			if ra := BusyRetryAfter(err); ra > sleep {
				sleep = ra
			}
			if !sleepUnless(h.closed, sleep) {
				return nil, fmt.Errorf("colza: stage aborted: %w", ErrHandleClosed)
			}
		}
		resp, err = h.c.callUntil(h.closed, addr, "stage", frame, tail, timeout)
		if err == nil {
			break
		}
		if !Retryable(err) || attempt+1 >= retry.attempts() {
			return nil, err
		}
	}
	// The decoded errors copy what they keep, so the response frame goes
	// back to the pool at once.
	defer mercury.Recycle(resp)
	return decodeStageBatchResp(resp, len(recs))
}

// stageBlock stages one block synchronously: a frame of one record whose
// bulk handle exposes the caller's (or, with a codec, the encoded) bytes in
// place. A delta-encoded block whose base the server no longer holds
// (evicted, invalidated, or already advanced by a duplicate of this very
// block) is re-encoded self-contained and sent once more — at-least-once
// staging may cost that round trip but never decodes against wrong state.
// zeroBase starts self-contained (the batcher's mismatch resend enters here).
func (h *DistributedPipelineHandle) stageBlock(it uint64, meta BlockMeta, data []byte, zeroBase bool) (err_ error) {
	m := h.stageMetrics()
	sp := m.reg.StartSpan("stage", SpanKeyFor(h.pipeline, it))
	defer func() { sp.End(err_) }()
	_, addr, err := h.stageTarget(meta)
	if err != nil {
		return err
	}
	for {
		wire, pooledWire, ci, used := h.codec.encodeStage(h.pipeline, it, meta, data, zeroBase)
		recs := [1]stageBatchRec{{CI: ci, Meta: meta, PayloadLen: len(wire)}}
		berrs, err := h.sendStage(it, addr, recs[:], wire, mercury.Bulk{})
		wireLen := len(wire)
		if pooledWire {
			bufpool.Put(wire)
		}
		if err == nil && len(berrs) > 0 {
			if berrs[0].Kind == stageBatchErrDeltaMismatch && ci.HasBase {
				m.deltaFallback.Inc()
				zeroBase = true
				continue
			}
			err = berrs[0].err()
		}
		if err == nil {
			h.codec.recordStaged(m.reg, h.pipeline, it, meta, data, len(data), ci, used, wireLen)
			m.bytes.Add(int64(len(data)))
			m.blocks.Inc()
			return nil
		}
		m.failed.Inc()
		return fmt.Errorf("colza: stage block %d on %s: %w", meta.BlockID, addr, err)
	}
}
