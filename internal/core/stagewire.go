package core

import (
	"encoding/binary"
	"errors"
	"math"

	"colza/internal/mercury"
)

// The stage RPC is the only control-plane call on the per-block hot path,
// so it gets a binary wire format; every other RPC stays JSON (cold and
// debuggable). A stage frame is appended into a pooled buffer sized by
// stageMsgSize and decoded with a bounded handful of small allocations
// (the three metadata strings), independent of block size — a block small
// enough to ride inside the encoded bulk handle is aliased, not copied.
//
// Layout (little-endian):
//
//	u8  version
//	u8  codec id
//	u64 uncompressed payload length
//	u64 delta base iteration + 1 (0 = no base: payload is self-contained)
//	u8  flags (bit0: server should remember this block for future deltas)
//	u32 len(pipeline), pipeline
//	u64 iteration
//	u32 len(field), field
//	u32 block id (two's complement int32)
//	u32 len(type), type
//	3 × u32 dims (int32)
//	3 × u64 origin  (float64 bits)
//	3 × u64 spacing (float64 bits)
//	u32 len(bulk), encoded mercury.Bulk handle
//
// Version 2 added the codec block (codec id, uncompressed length, delta
// base, flags); the bulk handle now describes the *encoded* payload, and
// the uncompressed length tells the server how many bytes the decode must
// produce. Raw (codec 0, uncompressed == bulk size, no base) reproduces the
// v1 semantics exactly.

const stageWireVersion = 2

// stageFlagRemember asks the receiver to retain the decoded block as the
// delta base for the next iteration.
const stageFlagRemember = 1 << 0

// maxStageUncompressed bounds the uncompressed length a frame may claim, so
// a corrupt or hostile frame cannot make the server reserve unbounded
// memory. Matches the largest bufpool class (64 MiB).
const maxStageUncompressed = 64 << 20

// stageCodecInfo is the codec block of a stage frame: how the bulk payload
// was encoded and how to undo it.
type stageCodecInfo struct {
	CodecID      uint8
	Uncompressed uint64 // decoded payload length
	DeltaBase    uint64 // base iteration the payload was XORed against
	HasBase      bool   // false: no XOR base, payload is self-contained
	Remember     bool   // receiver should keep the block as next delta base
}

// ErrStageWire reports a malformed stage frame.
var ErrStageWire = errors.New("colza: malformed stage frame")

// stageMsgSize is the exact encoded size of a stage frame, so callers can
// draw a right-sized pooled buffer.
func stageMsgSize(pipeline string, meta BlockMeta, bulk mercury.Bulk) int {
	return 1 + // version
		1 + 8 + 8 + 1 + // codec id, uncompressed, delta base, flags
		4 + len(pipeline) +
		8 + // iteration
		4 + len(meta.Field) +
		4 + // block id
		4 + len(meta.Type) +
		12 + 24 + 24 + // dims, origin, spacing
		4 + bulk.EncodedSize()
}

func appendU32(dst []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(dst, tmp[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(dst, tmp[:]...)
}

func appendLenString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// appendStageMsg encodes a stage frame; with stageMsgSize of spare
// capacity in dst it does not allocate.
func appendStageMsg(dst []byte, pipeline string, it uint64, meta BlockMeta, ci stageCodecInfo, bulk mercury.Bulk) []byte {
	dst = append(dst, stageWireVersion)
	dst = append(dst, ci.CodecID)
	dst = appendU64(dst, ci.Uncompressed)
	base := uint64(0)
	if ci.HasBase {
		base = ci.DeltaBase + 1
	}
	dst = appendU64(dst, base)
	var flags byte
	if ci.Remember {
		flags |= stageFlagRemember
	}
	dst = append(dst, flags)
	dst = appendLenString(dst, pipeline)
	dst = appendU64(dst, it)
	dst = appendLenString(dst, meta.Field)
	dst = appendU32(dst, uint32(int32(meta.BlockID)))
	dst = appendLenString(dst, meta.Type)
	for _, d := range meta.Dims {
		dst = appendU32(dst, uint32(int32(d)))
	}
	for _, o := range meta.Origin {
		dst = appendU64(dst, math.Float64bits(o))
	}
	for _, s := range meta.Spacing {
		dst = appendU64(dst, math.Float64bits(s))
	}
	dst = appendU32(dst, uint32(bulk.EncodedSize()))
	return bulk.AppendEncode(dst)
}

func readU32(p []byte) (uint32, []byte, error) {
	if len(p) < 4 {
		return 0, nil, ErrStageWire
	}
	return binary.LittleEndian.Uint32(p), p[4:], nil
}

func readU64(p []byte) (uint64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, ErrStageWire
	}
	return binary.LittleEndian.Uint64(p), p[8:], nil
}

func readLenString(p []byte) (string, []byte, error) {
	n, p, err := readU32(p)
	if err != nil || int64(n) > int64(len(p)) {
		return "", nil, ErrStageWire
	}
	return string(p[:n]), p[n:], nil
}

// decodeStageMsg parses a stage frame. The strings are copies, but a bulk
// handle that carries its region (mercury's eager path) aliases p: the
// handle, and whatever is borrowed from it, is valid only while p is — for
// a handler, until it returns.
func decodeStageMsg(p []byte) (pipeline string, it uint64, meta BlockMeta, ci stageCodecInfo, bulk mercury.Bulk, err error) {
	fail := func() (string, uint64, BlockMeta, stageCodecInfo, mercury.Bulk, error) {
		return "", 0, BlockMeta{}, stageCodecInfo{}, mercury.Bulk{}, ErrStageWire
	}
	if len(p) < 1 || p[0] != stageWireVersion {
		return fail()
	}
	p = p[1:]
	if len(p) < 1 {
		return fail()
	}
	ci.CodecID = p[0]
	p = p[1:]
	if ci.Uncompressed, p, err = readU64(p); err != nil || ci.Uncompressed > maxStageUncompressed {
		return fail()
	}
	var base uint64
	if base, p, err = readU64(p); err != nil {
		return fail()
	}
	if base > 0 {
		ci.HasBase = true
		ci.DeltaBase = base - 1
	}
	if len(p) < 1 || p[0]&^stageFlagRemember != 0 {
		return fail()
	}
	ci.Remember = p[0]&stageFlagRemember != 0
	p = p[1:]
	if pipeline, p, err = readLenString(p); err != nil {
		return fail()
	}
	if it, p, err = readU64(p); err != nil {
		return fail()
	}
	if meta.Field, p, err = readLenString(p); err != nil {
		return fail()
	}
	var v32 uint32
	if v32, p, err = readU32(p); err != nil {
		return fail()
	}
	meta.BlockID = int(int32(v32))
	if meta.Type, p, err = readLenString(p); err != nil {
		return fail()
	}
	for i := range meta.Dims {
		if v32, p, err = readU32(p); err != nil {
			return fail()
		}
		meta.Dims[i] = int(int32(v32))
	}
	var v64 uint64
	for i := range meta.Origin {
		if v64, p, err = readU64(p); err != nil {
			return fail()
		}
		meta.Origin[i] = math.Float64frombits(v64)
	}
	for i := range meta.Spacing {
		if v64, p, err = readU64(p); err != nil {
			return fail()
		}
		meta.Spacing[i] = math.Float64frombits(v64)
	}
	var bn uint32
	if bn, p, err = readU32(p); err != nil || int64(bn) != int64(len(p)) {
		return fail()
	}
	bulk, rest, err := mercury.DecodeBulk(p)
	if err != nil || len(rest) != 0 {
		return fail()
	}
	return pipeline, it, meta, ci, bulk, nil
}
