package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"colza/internal/codec"
	"colza/internal/mercury"
)

// What every server sees every iteration is binary on the wire: the stage
// frame here, the per-iteration control frames (ctrlwire.go) and SWIM's
// messages (internal/ssg); the admin RPCs and checkpoint rounds, which run
// when an operator or a leave asks, stay JSON (cold and debuggable).
// There is one stage frame (DESIGN.md §7.3): a count-prefixed
// list of per-block records followed by ONE bulk handle over the
// concatenation of the records' encoded payloads. A per-block Stage sends a
// frame of one record whose handle exposes the caller's buffer in place; the
// coalescing batcher (batch.go) sends every block bound for one server rank
// in one frame. The server fetches the region once — borrowed from the
// request when it rode eagerly, pulled otherwise — and slices it by the
// records' payload lengths. A frame's head is appended into a pooled buffer
// sized by stageBatchMsgSize; a region that rides eagerly is the frame's last
// field and leaves from where it lies, as the tail of a gathered send. The
// server decodes a frame without allocating: the pipeline name is looked up
// in place, field and type names come from the pipeline's internTable, and
// the records go into a pooled list (handleStage).
//
// Layout (little-endian):
//
//	u8  version (3)
//	u32 len(pipeline), pipeline
//	u64 iteration
//	u32 block count
//	count × record:
//	    u8  codec id (0 raw, 3 delta; any other id is a malformed frame)
//	    u64 uncompressed payload length
//	    u64 delta base iteration + 1 (0 = no base: payload is self-contained)
//	    u8  flags (bit0: server should remember this block for future deltas)
//	    u32 len(field), field
//	    u32 block id (two's complement int32)
//	    u32 len(type), type
//	    3 × u32 dims (int32)
//	    3 × u64 origin  (float64 bits)
//	    3 × u64 spacing (float64 bits)
//	    u32 encoded payload length within the shared bulk region
//	u32 len(bulk), encoded mercury.Bulk handle
//
// The bulk handle describes the *encoded* payloads; a record's uncompressed
// length tells the server how many bytes its decode must produce. Payload
// offsets are implicit: record i's payload starts where record i-1's ended,
// and the lengths must sum to exactly the bulk size. Versions 1 and 2 were
// single-block frames; a server answers them with ErrStageWire.
//
// The response is the typed per-block error list (see appendStageBatchResp):
// block failures are demultiplexed per index so one bad block cannot fail
// its frame-mates.

const stageBatchWireVersion = 3

// stageFlagRemember asks the receiver to retain the decoded block as the
// delta base for the next iteration.
const stageFlagRemember = 1 << 0

// maxStageUncompressed bounds the uncompressed length a record may claim, so
// a corrupt or hostile frame cannot make the server reserve unbounded
// memory. Matches the largest bufpool class (64 MiB).
const maxStageUncompressed = 64 << 20

// stageCodecInfo is the codec block of a record: how its payload was
// encoded and how to undo it.
type stageCodecInfo struct {
	CodecID      uint8
	Uncompressed uint64 // decoded payload length
	DeltaBase    uint64 // base iteration the payload was XORed against
	HasBase      bool   // false: no XOR base, payload is self-contained
	Remember     bool   // receiver should keep the block as next delta base
}

// ErrStageWire reports a malformed stage frame.
var ErrStageWire = errors.New("colza: malformed stage frame")

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
	b, p, err := readLenBytes(p)
	return string(b), p, err
}

// readLenBytes is readLenString without the copy: the bytes alias p.
func readLenBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := readU32(p)
	if err != nil || int64(n) > int64(len(p)) {
		return nil, nil, ErrStageWire
	}
	return p[:n], p[n:], nil
}

// maxInterned bounds the strings one internTable holds.
const maxInterned = 64

// internTable holds the strings a pipeline's stage frames name — field and
// type names, a handful per pipeline — so that decoding a record copies
// neither: the frame's bytes are looked up in the table in place. A
// pipeline instance (its provider slot) owns one. Past maxInterned strings
// it copies per use, as every string was copied before it existed, so a
// hostile peer naming endless strings grows it no further.
type internTable struct {
	mu sync.Mutex
	m  map[string]string
}

// intern returns b as a string, the table's copy when it has one. A nil
// table copies.
func (t *internTable) intern(b []byte) string {
	if t == nil {
		return string(b)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(t.m) < maxInterned {
		if t.m == nil {
			t.m = make(map[string]string)
		}
		t.m[s] = s
	}
	return s
}

// maxStageBatchBlocks bounds the block count a frame may claim; the batcher
// flushes at batchMaxBlocks, far below it.
const maxStageBatchBlocks = 65536

// maxStageBatchPayload bounds one record's encoded payload length. Delta
// may expand hostile input, but never past MaxEncodedSize, which stays
// within 2x the uncompressed ceiling.
const maxStageBatchPayload = 2 * maxStageUncompressed

// maxStageFramePayload bounds the payload lengths of one frame's records
// together: the largest frame a client builds. A per-block Stage sends one
// record. A batch goes out once its payload reaches batchMaxBytes, so it
// holds less than that before its last block, and that block may carry up to
// maxStageBatchPayload (the batcher's outgrow case). Without the bound a
// 6 MB frame of 65,536 maximal records names an 8 TiB region, which the
// server would try to allocate before pulling it.
const maxStageFramePayload = batchMaxBytes + maxStageBatchPayload

// stageBatchRec is one block's record in a stage frame: codec info and
// metadata plus the length of its payload in the shared bulk.
type stageBatchRec struct {
	CI         stageCodecInfo
	Meta       BlockMeta
	PayloadLen int
}

// stageBatchRecSize is the encoded size of one record.
func stageBatchRecSize(r stageBatchRec) int {
	return 1 + 8 + 8 + 1 + // codec id, uncompressed, delta base, flags
		4 + len(r.Meta.Field) +
		4 + // block id
		4 + len(r.Meta.Type) +
		12 + 24 + 24 + // dims, origin, spacing
		4 // payload length
}

// stageBatchMsgSize is the exact size of a stage frame's head (all of it
// but an eager region), so the assembly buffer can be drawn right-sized from
// the pool.
func stageBatchMsgSize(pipeline string, recs []stageBatchRec, bulk mercury.Bulk) int {
	n := 1 + // version
		4 + len(pipeline) +
		8 + // iteration
		4 + // count
		4 + bulk.EncodedSize()
	for _, r := range recs {
		n += stageBatchRecSize(r)
	}
	return n
}

// checkStageMeta refuses a block the frame cannot describe: a record
// carries the block id and dims as int32, so a wider value would land as
// another block — under delta, against that block's base.
func checkStageMeta(meta BlockMeta) error {
	fits := meta.BlockID == int(int32(meta.BlockID))
	for _, d := range meta.Dims {
		fits = fits && d == int(int32(d))
	}
	if !fits {
		return fmt.Errorf("%w: block id %d and dims %v must fit in int32", ErrStageWire, meta.BlockID, meta.Dims)
	}
	return nil
}

// appendStageFrame encodes a stage frame as head and tail: everything up to
// and including the bulk handle's region length word is appended to dst,
// and a region that rides eagerly — the frame's last field — is returned as
// tail, uncopied (nil when it is pulled). On the wire the frame is head then
// tail. With stageBatchMsgSize of spare capacity in dst it does not
// allocate.
func appendStageFrame(dst []byte, pipeline string, it uint64, recs []stageBatchRec, bulk mercury.Bulk) (head, tail []byte) {
	dst = append(dst, stageBatchWireVersion)
	dst = appendLenString(dst, pipeline)
	dst = appendU64(dst, it)
	dst = appendU32(dst, uint32(len(recs)))
	for _, r := range recs {
		dst = append(dst, r.CI.CodecID)
		dst = appendU64(dst, r.CI.Uncompressed)
		base := uint64(0)
		if r.CI.HasBase {
			base = r.CI.DeltaBase + 1
		}
		dst = appendU64(dst, base)
		var flags byte
		if r.CI.Remember {
			flags |= stageFlagRemember
		}
		dst = append(dst, flags)
		dst = appendLenString(dst, r.Meta.Field)
		dst = appendU32(dst, uint32(int32(r.Meta.BlockID)))
		dst = appendLenString(dst, r.Meta.Type)
		for _, d := range r.Meta.Dims {
			dst = appendU32(dst, uint32(int32(d)))
		}
		for _, o := range r.Meta.Origin {
			dst = appendU64(dst, math.Float64bits(o))
		}
		for _, s := range r.Meta.Spacing {
			dst = appendU64(dst, math.Float64bits(s))
		}
		dst = appendU32(dst, uint32(r.PayloadLen))
	}
	at := len(dst)
	dst = appendU32(dst, 0) // the encoded handle's length, known below
	head, tail = bulk.AppendEncode(dst)
	binary.LittleEndian.PutUint32(head[at:], uint32(len(head)-at-4+len(tail)))
	return head, tail
}

// splitStageFrame checks a stage frame's version and splits off its
// pipeline name, which aliases p, from the rest of the frame: the server
// finds the pipeline by the name's bytes (Provider.slotOf), with no copy,
// before it decodes the records with decodeStageRecords.
func splitStageFrame(p []byte) (pipeline, rest []byte, err error) {
	if len(p) < 1 || p[0] != stageBatchWireVersion {
		return nil, nil, ErrStageWire
	}
	return readLenBytes(p[1:])
}

// decodeStageRecords parses what follows a stage frame's pipeline name: the
// iteration, the records, appended to recs, and the bulk handle. Records
// materialize incrementally as parsing succeeds, so a hostile count cannot
// reserve memory beyond what the input actually carries; a record's codec
// is raw or delta, the 64 MiB uncompressed ceiling holds per record, and
// the payload lengths must sum to exactly the bulk size, which is at most
// maxStageFramePayload. Field and type names come from names (copies when
// it is nil), the bulk's owner address is from when it matches
// (mercury.DecodeBulk). A bulk handle that carries its region (mercury's
// eager path) aliases p: the handle, and whatever is borrowed from it, is
// valid only while p is — for a handler, until it returns.
func decodeStageRecords(p []byte, from string, names *internTable, recs []stageBatchRec) (it uint64, _ []stageBatchRec, bulk mercury.Bulk, err error) {
	fail := func() (uint64, []stageBatchRec, mercury.Bulk, error) {
		return 0, recs, mercury.Bulk{}, ErrStageWire
	}
	if it, p, err = readU64(p); err != nil {
		return fail()
	}
	var count uint32
	if count, p, err = readU32(p); err != nil || count == 0 || count > maxStageBatchBlocks {
		return fail()
	}
	var totalPayload int64
	var str []byte
	for i := uint32(0); i < count; i++ {
		var r stageBatchRec
		if len(p) < 1 {
			return fail()
		}
		if r.CI.CodecID = p[0]; r.CI.CodecID != codec.RawID && r.CI.CodecID != codec.DeltaID {
			return fail() // ids 1 and 2, the retired flate and shuffle, included
		}
		p = p[1:]
		if r.CI.Uncompressed, p, err = readU64(p); err != nil || r.CI.Uncompressed > maxStageUncompressed {
			return fail()
		}
		var base uint64
		if base, p, err = readU64(p); err != nil {
			return fail()
		}
		if base > 0 {
			r.CI.HasBase = true
			r.CI.DeltaBase = base - 1
		}
		if len(p) < 1 || p[0]&^stageFlagRemember != 0 {
			return fail()
		}
		r.CI.Remember = p[0]&stageFlagRemember != 0
		p = p[1:]
		if str, p, err = readLenBytes(p); err != nil {
			return fail()
		}
		r.Meta.Field = names.intern(str)
		var v32 uint32
		if v32, p, err = readU32(p); err != nil {
			return fail()
		}
		r.Meta.BlockID = int(int32(v32))
		if str, p, err = readLenBytes(p); err != nil {
			return fail()
		}
		r.Meta.Type = names.intern(str)
		for d := range r.Meta.Dims {
			if v32, p, err = readU32(p); err != nil {
				return fail()
			}
			r.Meta.Dims[d] = int(int32(v32))
		}
		var v64 uint64
		for d := range r.Meta.Origin {
			if v64, p, err = readU64(p); err != nil {
				return fail()
			}
			r.Meta.Origin[d] = math.Float64frombits(v64)
		}
		for d := range r.Meta.Spacing {
			if v64, p, err = readU64(p); err != nil {
				return fail()
			}
			r.Meta.Spacing[d] = math.Float64frombits(v64)
		}
		if v32, p, err = readU32(p); err != nil || v32 > maxStageBatchPayload {
			return fail()
		}
		r.PayloadLen = int(v32)
		if totalPayload += int64(r.PayloadLen); totalPayload > maxStageFramePayload {
			return fail()
		}
		recs = append(recs, r)
	}
	var bn uint32
	if bn, p, err = readU32(p); err != nil || int64(bn) != int64(len(p)) {
		return fail()
	}
	bulk, rest, err := mercury.DecodeBulk(p, from)
	if err != nil || len(rest) != 0 {
		return fail()
	}
	if totalPayload != int64(bulk.Size) {
		return fail()
	}
	return it, recs, bulk, nil
}

// --- per-block error demultiplexing response ------------------------------

// A stage RPC succeeds at the frame level whenever the frame decoded, the
// pipeline was active, and the bulk pull landed; what each block's decode +
// backend hand-off did is reported per index in the response. Only
// frame-level failures are RPC errors (and thus candidates for the client's
// whole-frame retry); per-block failures must not burn a retry for their
// frame-mates.

const stageBatchRespVersion = 1

// Per-block error kinds: how the client demultiplexes its reaction.
const (
	// stageBatchErrRemote: the block's decode or backend Stage failed; a
	// resend of the identical record would fail identically.
	stageBatchErrRemote = 1
	// stageBatchErrDeltaMismatch: the server no longer holds the delta base
	// the record named; the client re-stages that block self-contained.
	stageBatchErrDeltaMismatch = 2
)

// stageBatchBlockErr is one failed block in a stage response.
type stageBatchBlockErr struct {
	Index int
	Kind  uint8
	Msg   string
}

// err is the block's failure as the client's caller sees it: the server ran
// the block and refused it, so it classifies as remote (resending the
// identical record would fail identically).
func (e stageBatchBlockErr) err() error { return &mercury.RemoteError{Msg: e.Msg} }

// stageBatchRespSize is the exact encoded size of a stage response.
func stageBatchRespSize(errs []stageBatchBlockErr) int {
	n := 1 + 4
	for _, e := range errs {
		n += 4 + 1 + 4 + len(e.Msg)
	}
	return n
}

// appendStageBatchResp encodes the per-block error list (empty = every
// block landed).
func appendStageBatchResp(dst []byte, errs []stageBatchBlockErr) []byte {
	dst = append(dst, stageBatchRespVersion)
	dst = appendU32(dst, uint32(len(errs)))
	for _, e := range errs {
		dst = appendU32(dst, uint32(e.Index))
		dst = append(dst, e.Kind)
		dst = appendLenString(dst, e.Msg)
	}
	return dst
}

// stageRespAllLanded is the response to a frame whose every block landed —
// the normal case, so it is encoded once and handed out as is. It must stay
// immutable: mercury only sends or copies a handler's response.
var stageRespAllLanded = appendStageBatchResp(nil, nil)

// decodeStageBatchResp parses a stage response; blocks bounds the indexes
// a well-formed response may name.
func decodeStageBatchResp(p []byte, blocks int) ([]stageBatchBlockErr, error) {
	if len(p) < 1 || p[0] != stageBatchRespVersion {
		return nil, ErrStageWire
	}
	p = p[1:]
	count, p, err := readU32(p)
	if err != nil || int(count) > blocks {
		return nil, ErrStageWire
	}
	var out []stageBatchBlockErr
	for i := uint32(0); i < count; i++ {
		var e stageBatchBlockErr
		var idx uint32
		if idx, p, err = readU32(p); err != nil || int(idx) >= blocks {
			return nil, ErrStageWire
		}
		e.Index = int(idx)
		if len(p) < 1 {
			return nil, ErrStageWire
		}
		switch p[0] {
		case stageBatchErrRemote, stageBatchErrDeltaMismatch:
			e.Kind = p[0]
		default:
			return nil, ErrStageWire
		}
		p = p[1:]
		if e.Msg, p, err = readLenString(p); err != nil {
			return nil, ErrStageWire
		}
		out = append(out, e)
	}
	if len(p) != 0 {
		return nil, ErrStageWire
	}
	return out, nil
}
