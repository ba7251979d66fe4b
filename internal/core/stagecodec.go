package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"colza/internal/bufpool"
	"colza/internal/codec"
	"colza/internal/obs"
)

// codecUsed says whether a codec was named on the handle when a block was
// encoded (a handle with none named records no codec metrics) and the CPU
// time the encode took, for the metrics recorded once the stage RPC
// completes.
type codecUsed struct {
	named bool
	encNs int64
}

// stageCodecState is the client half of the stage compression path
// (DESIGN.md §10). SetCodec names the codec the handle stages every block
// through: raw or delta, the two the stage wire carries. With none named, or
// raw, every block takes the exact raw path — no copy, no encode — so the
// raw stage path's alloc ceilings (internal/bench) hold unchanged; only a
// named codec reports codec metrics.
type stageCodecState struct {
	mu          sync.Mutex
	named       bool // SetCodec was called
	delta       bool // blocks go delta-encoded
	bases       *codec.DeltaState
	lastMembers []string // the members of the last pinned view, a copy

	// metrics caches the raw ([0]) and delta ([1]) instruments recordStaged
	// bumps per block, resolved against metricsReg (labeled lookups compose
	// a key string).
	metricsReg *obs.Registry
	metrics    [2]*codecMetrics
}

// codecMetrics are the client-side instruments of one codec.
type codecMetrics struct {
	bytesIn, bytesOut *obs.Counter
	ratio, encodeCost *obs.Gauge
}

// codecMetricsFor returns the instruments in reg of the codec with wire id
// id. The caller holds s.mu.
func (s *stageCodecState) codecMetricsFor(reg *obs.Registry, id uint8) *codecMetrics {
	if s.metricsReg != reg {
		s.metricsReg, s.metrics = reg, [2]*codecMetrics{}
	}
	i, name := 0, "raw"
	if id == codec.DeltaID {
		i, name = 1, "delta"
	}
	if s.metrics[i] == nil {
		s.metrics[i] = &codecMetrics{
			bytesIn:    reg.Counter("codec.bytes.in", "codec", name),
			bytesOut:   reg.Counter("codec.bytes.out", "codec", name),
			ratio:      reg.Gauge("codec.ratio", "codec", name),
			encodeCost: reg.Gauge("codec.encode_ns_per_mb", "codec", name),
		}
	}
	return s.metrics[i]
}

func (s *stageCodecState) setCodec(name string) error {
	if name != "raw" && name != "delta" {
		return fmt.Errorf("colza: stage codec %q: the stage wire carries raw and delta", name)
	}
	s.mu.Lock()
	s.named, s.delta = true, name == "delta"
	s.mu.Unlock()
	return nil
}

func (s *stageCodecState) deltaState() *codec.DeltaState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bases == nil {
		s.bases = codec.NewDeltaState(0)
	}
	return s.bases
}

// viewPinned notes the members of a freshly pinned view. A membership
// change invalidates the pipeline's delta bases: placement re-routes blocks
// to servers that never saw their history, so every base this client
// remembers is suspect (invalidation matrix, DESIGN.md §10.2).
func (s *stageCodecState) viewPinned(pipeline string, v MemberView) {
	s.mu.Lock()
	changed := false
	if !slices.Equal(s.lastMembers, v.Members) {
		changed = s.lastMembers != nil
		s.lastMembers = slices.Clone(v.Members)
	}
	bases := s.bases
	s.mu.Unlock()
	if changed && bases != nil {
		bases.InvalidatePipeline(pipeline)
	}
}

// encodeStage prepares one block's wire payload. Unless the handle stages
// delta, wire IS data (raw passthrough, nothing pooled); delta compresses
// into a pooled buffer the caller must bufpool.Put once the bytes are sent
// or copied. zeroBase forces a self-contained delta (the mismatch resend).
func (s *stageCodecState) encodeStage(pipeline string, it uint64, meta BlockMeta, data []byte, zeroBase bool) (wire []byte, pooled bool, ci stageCodecInfo, used codecUsed) {
	s.mu.Lock()
	used.named = s.named
	delta := s.delta
	s.mu.Unlock()
	ci = stageCodecInfo{Uncompressed: uint64(len(data))}
	if !delta {
		return data, false, ci, used
	}
	ci.CodecID, ci.Remember = codec.DeltaID, true
	start := time.Now()
	src := data
	var xbuf []byte
	if !zeroBase && len(data) > 0 {
		// XOR against the remembered base into a pooled buffer (the caller's
		// must stay untouched — RDMA semantics).
		key := codec.DeltaKey{Pipeline: pipeline, Field: meta.Field, Block: meta.BlockID}
		xbuf = bufpool.Get(len(data))
		if base, ok := s.deltaState().XORLatest(xbuf, key, it, data); ok {
			ci.HasBase, ci.DeltaBase = true, base
			src = xbuf
		} else {
			bufpool.Put(xbuf)
			xbuf = nil
		}
	}
	buf := bufpool.Get(codec.Delta{}.MaxEncodedSize(len(src)))
	enc, err := codec.Delta{}.Encode(buf[:0], src)
	if xbuf != nil {
		bufpool.Put(xbuf)
	}
	used.encNs = time.Since(start).Nanoseconds()
	if err != nil {
		// Delta's DEFLATE stream writes to memory and does not fail; were it
		// to, the block would go raw rather than fail the stage.
		bufpool.Put(buf)
		return data, false, stageCodecInfo{Uncompressed: uint64(len(data))}, used
	}
	return enc, true, ci, used
}

// recordStaged feeds one successfully staged block back into metrics and —
// for delta — the remembered base history. Client-side codec.bytes.in counts
// uncompressed bytes entering the codec, codec.bytes.out the wire bytes
// leaving; codec.ratio is permille (wire*1000/uncompressed). dataLen carries
// the uncompressed length; data may be nil for a caller that no longer holds
// the original block (the batcher, for raw) — the delta base is then not
// remembered, and the batcher keeps a pooled copy whenever ci.Remember is
// set.
func (s *stageCodecState) recordStaged(reg *obs.Registry, pipeline string, it uint64, meta BlockMeta, data []byte, dataLen int, ci stageCodecInfo, used codecUsed, wireLen int) {
	if !used.named {
		return
	}
	s.mu.Lock()
	m := s.codecMetricsFor(reg, ci.CodecID)
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
