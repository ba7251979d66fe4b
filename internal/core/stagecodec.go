package core

import (
	"sync"
	"time"

	"colza/internal/bufpool"
	"colza/internal/codec"
	"colza/internal/obs"
)

// codecUsed pairs the codec a block was encoded with and the CPU time the
// encode took, for feedback after the stage RPC completes.
type codecUsed struct {
	c     codec.Codec
	encNs int64
}

// stageCodecState is the client half of the stage compression path.
// Compression is opt-in per handle (SetCodec / SetCodecAdaptive): with
// neither set every block takes the exact pre-codec raw path — no copy, no
// encode, no extra metrics — so the PR 3 alloc ceilings hold unchanged.
type stageCodecState struct {
	mu          sync.Mutex
	forced      codec.Codec // non-nil: always use this codec (negotiation permitting)
	adaptive    bool
	selector    *codec.Selector
	delta       *codec.DeltaState
	allowed     map[uint8]bool // per-link negotiated set; nil before negotiation
	lastMembers string         // member key of the last negotiated view

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

// enabled reports whether the codec machinery is engaged at all.
func (s *stageCodecState) enabled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.forced != nil || s.adaptive
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

func (s *stageCodecState) setAdaptive(on bool) {
	s.mu.Lock()
	s.adaptive = on
	if on {
		s.forced = nil
		if s.selector == nil {
			s.selector = codec.NewSelector(codec.All())
		}
	}
	s.mu.Unlock()
}

func (s *stageCodecState) deltaState() *codec.DeltaState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.delta == nil {
		s.delta = codec.NewDeltaState(0)
	}
	return s.delta
}

// negotiate installs the per-link codec set for a freshly pinned view: the
// intersection of what every member advertises (a member advertising
// nothing is raw-only — raw is always mutual). A membership change also
// invalidates the pipeline's delta bases: placement re-routes blocks to
// servers that never saw their history, so every base this client
// remembers is suspect.
func (s *stageCodecState) negotiate(pipeline string, members []ServerInfo) {
	key := viewMemberKey(MemberView{Members: members})
	inter := map[uint8]bool{codec.RawID: true}
	for _, id := range codec.IDs() {
		inter[id] = true
	}
	for _, m := range members {
		mset := map[uint8]bool{codec.RawID: true}
		for _, id := range m.Codecs {
			mset[id] = true
		}
		for id := range inter {
			if !mset[id] {
				delete(inter, id)
			}
		}
	}
	s.mu.Lock()
	changed := s.lastMembers != "" && s.lastMembers != key
	s.lastMembers = key
	s.allowed = inter
	sel := s.selector
	delta := s.delta
	s.mu.Unlock()
	if sel != nil {
		var cands []codec.Codec
		for _, c := range codec.All() {
			if inter[c.ID()] {
				cands = append(cands, c)
			}
		}
		sel.SetCandidates(cands)
	}
	if changed && delta != nil {
		delta.InvalidatePipeline(pipeline)
	}
}

// pick chooses the codec for the next block, honoring the negotiated set.
func (s *stageCodecState) pick() codec.Codec {
	s.mu.Lock()
	forced, adaptive, sel, allowed := s.forced, s.adaptive, s.selector, s.allowed
	s.mu.Unlock()
	permit := func(c codec.Codec) bool {
		return c.ID() == codec.RawID || allowed == nil || allowed[c.ID()]
	}
	if forced != nil && permit(forced) {
		return forced
	}
	if forced == nil && adaptive && sel != nil {
		if c := sel.Pick(); permit(c) {
			return c
		}
	}
	return codec.Raw{}
}

// encodeStage prepares the wire payload for one block. Raw returns data
// itself (pooled=false, nothing to recycle); any other codec returns a
// pooled buffer the caller must bufpool.Put after release. zeroBase forces
// a self-contained delta (the mismatch-fallback retry path).
func (s *stageCodecState) encodeStage(pipeline string, it uint64, meta BlockMeta, data []byte, zeroBase bool) (wire []byte, pooled bool, ci stageCodecInfo, used codec.Codec, encNs int64) {
	c := s.pick()
	ci = stageCodecInfo{CodecID: c.ID(), Uncompressed: uint64(len(data))}
	if c.ID() == codec.RawID {
		return data, false, ci, c, 0
	}
	start := time.Now()
	src := data
	var xbuf []byte
	if c.ID() == codec.DeltaID {
		ci.Remember = true
		key := codec.DeltaKey{Pipeline: pipeline, Field: meta.Field, Block: meta.BlockID}
		if !zeroBase && len(data) > 0 {
			if base, n, ok := s.deltaState().Latest(key); ok && n == len(data) && base < it {
				// XOR against the remembered base in a pooled copy (the
				// caller's buffer must stay untouched — RDMA semantics).
				xbuf = bufpool.Get(len(data))
				copy(xbuf, data)
				if s.deltaState().XORBase(key, base, xbuf) {
					ci.HasBase, ci.DeltaBase = true, base
					src = xbuf
				} else {
					bufpool.Put(xbuf)
					xbuf = nil
				}
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
		ci = stageCodecInfo{CodecID: codec.RawID, Uncompressed: uint64(len(data))}
		return data, false, ci, codec.Raw{}, time.Since(start).Nanoseconds()
	}
	return enc, true, ci, c, time.Since(start).Nanoseconds()
}

// recordStaged feeds one successfully staged block back into metrics, the
// adaptive selector, and — for delta — the remembered base history.
// Client-side codec.bytes.in counts uncompressed bytes entering the codec,
// codec.bytes.out the wire bytes leaving; codec.ratio is permille
// (wire*1000/uncompressed). dataLen carries the uncompressed length; data
// may be nil for a caller that no longer holds the original block (the
// batcher, for non-delta codecs) — the delta base is then not remembered,
// and the batcher keeps a pooled copy whenever ci.Remember is set.
func (s *stageCodecState) recordStaged(reg *obs.Registry, pipeline string, it uint64, meta BlockMeta, data []byte, dataLen int, ci stageCodecInfo, used codec.Codec, wireLen int, encNs, rpcNs int64) {
	if used == nil {
		return
	}
	s.mu.Lock()
	m := s.codecMetricsFor(reg, used)
	sel := s.selector
	s.mu.Unlock()
	m.bytesIn.Add(int64(dataLen))
	m.bytesOut.Add(int64(wireLen))
	if dataLen > 0 {
		m.ratio.Set(int64(wireLen) * 1000 / int64(dataLen))
		m.encodeCost.Set(encNs * (1 << 20) / int64(dataLen))
	}
	if sel != nil {
		sel.Record(used, dataLen, wireLen, encNs, rpcNs)
	}
	if ci.Remember && data != nil {
		s.deltaState().Remember(codec.DeltaKey{Pipeline: pipeline, Field: meta.Field, Block: meta.BlockID}, it, data)
	}
}
