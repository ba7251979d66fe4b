package core

import (
	"sync"
	"time"

	"colza/internal/bufpool"
	"colza/internal/codec"
	"colza/internal/obs"
)

// codecUsed pairs the codec a block was encoded with (nil when none is
// named) and the CPU time the encode took, for the metrics recorded once the
// stage RPC completes.
type codecUsed struct {
	c     codec.Codec
	encNs int64
}

// stageCodecState is the client half of the stage compression path
// (DESIGN.md §10). SetCodec names the one codec the handle encodes every
// block with; with none named every block takes the exact pre-codec raw
// path — no copy, no encode, no extra metrics — so the PR 3 alloc ceilings
// hold unchanged.
type stageCodecState struct {
	mu          sync.Mutex
	forced      codec.Codec // nil: no codec named
	delta       *codec.DeltaState
	lastMembers string // member key of the last pinned view

	// metrics caches the per-codec instruments recordStaged bumps per block,
	// resolved against metricsReg (labeled lookups compose a key string).
	metricsReg *obs.Registry
	metrics    map[uint8]*codecMetrics
}

// codecMetrics are the client-side instruments of one codec.
type codecMetrics struct {
	bytesIn, bytesOut *obs.Counter
	ratio, encodeCost *obs.Gauge
}

// codecMetricsFor returns c's instruments in reg. The caller holds s.mu.
func (s *stageCodecState) codecMetricsFor(reg *obs.Registry, c codec.Codec) *codecMetrics {
	if s.metricsReg != reg {
		s.metricsReg, s.metrics = reg, make(map[uint8]*codecMetrics)
	}
	m := s.metrics[c.ID()]
	if m == nil {
		name := c.Name()
		m = &codecMetrics{
			bytesIn:    reg.Counter("codec.bytes.in", "codec", name),
			bytesOut:   reg.Counter("codec.bytes.out", "codec", name),
			ratio:      reg.Gauge("codec.ratio", "codec", name),
			encodeCost: reg.Gauge("codec.encode_ns_per_mb", "codec", name),
		}
		s.metrics[c.ID()] = m
	}
	return m
}

func (s *stageCodecState) setCodec(name string) error {
	c, err := codec.Lookup(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.forced = c
	s.mu.Unlock()
	return nil
}

func (s *stageCodecState) deltaState() *codec.DeltaState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.delta == nil {
		s.delta = codec.NewDeltaState(0)
	}
	return s.delta
}

// viewPinned notes the members of a freshly pinned view. A membership
// change invalidates the pipeline's delta bases: placement re-routes blocks
// to servers that never saw their history, so every base this client
// remembers is suspect (invalidation matrix, DESIGN.md §10.2).
func (s *stageCodecState) viewPinned(pipeline string, v MemberView) {
	key := viewMemberKey(v)
	s.mu.Lock()
	changed := s.lastMembers != "" && s.lastMembers != key
	s.lastMembers = key
	delta := s.delta
	s.mu.Unlock()
	if changed && delta != nil {
		delta.InvalidatePipeline(pipeline)
	}
}

// encodeStage prepares one block's wire payload. With no codec named wire
// IS data (raw passthrough, nothing pooled, no codec metrics), and so it is
// for a named raw; any other codec compresses into a pooled buffer the
// caller must bufpool.Put once the bytes are sent or copied. zeroBase forces
// a self-contained delta (the mismatch resend).
func (s *stageCodecState) encodeStage(pipeline string, it uint64, meta BlockMeta, data []byte, zeroBase bool) (wire []byte, pooled bool, ci stageCodecInfo, used codecUsed) {
	s.mu.Lock()
	c := s.forced
	s.mu.Unlock()
	ci = stageCodecInfo{Uncompressed: uint64(len(data))}
	if c == nil || c.ID() == codec.RawID {
		return data, false, ci, codecUsed{c: c}
	}
	ci.CodecID = c.ID()
	start := time.Now()
	src := data
	var xbuf []byte
	if c.ID() == codec.DeltaID {
		ci.Remember = true
		key := codec.DeltaKey{Pipeline: pipeline, Field: meta.Field, Block: meta.BlockID}
		if !zeroBase && len(data) > 0 {
			// XOR against the remembered base into a pooled buffer (the
			// caller's must stay untouched — RDMA semantics).
			xbuf = bufpool.Get(len(data))
			if base, ok := s.deltaState().XORLatest(xbuf, key, it, data); ok {
				ci.HasBase, ci.DeltaBase = true, base
				src = xbuf
			} else {
				bufpool.Put(xbuf)
				xbuf = nil
			}
		}
	}
	buf := bufpool.Get(c.MaxEncodedSize(len(src)))
	enc, err := c.Encode(buf[:0], src)
	if xbuf != nil {
		bufpool.Put(xbuf)
	}
	if err != nil {
		// The built-in codecs cannot fail to encode, but a failing codec must
		// degrade to raw, never fail the stage.
		bufpool.Put(buf)
		ci = stageCodecInfo{Uncompressed: uint64(len(data))}
		return data, false, ci, codecUsed{codec.Raw{}, time.Since(start).Nanoseconds()}
	}
	return enc, true, ci, codecUsed{c, time.Since(start).Nanoseconds()}
}

// recordStaged feeds one successfully staged block back into metrics and —
// for delta — the remembered base history. Client-side codec.bytes.in counts
// uncompressed bytes entering the codec, codec.bytes.out the wire bytes
// leaving; codec.ratio is permille (wire*1000/uncompressed). dataLen carries
// the uncompressed length; data may be nil for a caller that no longer holds
// the original block (the batcher, for non-delta codecs) — the delta base is
// then not remembered, and the batcher keeps a pooled copy whenever
// ci.Remember is set.
func (s *stageCodecState) recordStaged(reg *obs.Registry, pipeline string, it uint64, meta BlockMeta, data []byte, dataLen int, ci stageCodecInfo, used codecUsed, wireLen int) {
	if used.c == nil {
		return
	}
	s.mu.Lock()
	m := s.codecMetricsFor(reg, used.c)
	s.mu.Unlock()
	m.bytesIn.Add(int64(dataLen))
	m.bytesOut.Add(int64(wireLen))
	if dataLen > 0 {
		m.ratio.Set(int64(wireLen) * 1000 / int64(dataLen))
		m.encodeCost.Set(used.encNs * (1 << 20) / int64(dataLen))
	}
	if ci.Remember && data != nil {
		s.deltaState().Remember(codec.DeltaKey{Pipeline: pipeline, Field: meta.Field, Block: meta.BlockID}, it, data)
	}
}
