package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"colza/internal/codec"
	"colza/internal/mercury"
	"colza/internal/na"
)

// appendStageBatchMsg is a whole stage frame as the server receives it:
// appendStageFrame's head with its tail joined on.
func appendStageBatchMsg(dst []byte, pipeline string, it uint64, recs []stageBatchRec, bulk mercury.Bulk) []byte {
	head, tail := appendStageFrame(dst, pipeline, it, recs, bulk)
	return append(head, tail...)
}

// oneRec is the record list of a per-block Stage: one record whose payload
// is the whole region.
func oneRec(meta BlockMeta, ci stageCodecInfo, bulk mercury.Bulk) []stageBatchRec {
	return []stageBatchRec{{CI: ci, Meta: meta, PayloadLen: bulk.Size}}
}

// TestStageWireRoundTrip: the frame a per-block Stage sends — one record —
// round-trips for every codec block shape, over a pulled and an eager handle.
func TestStageWireRoundTrip(t *testing.T) {
	meta := BlockMeta{
		Field:   "density",
		BlockID: -7,
		Type:    "imagedata",
		Dims:    [3]int{32, 16, 8},
		Origin:  [3]float64{-1, 0.5, 3e9},
		Spacing: [3]float64{0.1, 0.2, 0.3},
	}
	cases := []struct {
		ci   stageCodecInfo
		bulk mercury.Bulk
	}{
		{stageCodecInfo{CodecID: codec.RawID, Uncompressed: 1 << 20}, mercury.Bulk{Addr: "inproc://sim-3", ID: 42, Size: 1 << 20}},
		{stageCodecInfo{CodecID: codec.ShuffleID, Uncompressed: 4 << 20}, mercury.Bulk{Addr: "inproc://sim-3", ID: 42, Size: 1 << 20}},
		{stageCodecInfo{CodecID: codec.DeltaID, Uncompressed: 64, HasBase: true, DeltaBase: 0, Remember: true}, mercury.Bulk{Addr: "inproc://sim-3", ID: 42, Size: 1 << 20}},
		{stageCodecInfo{CodecID: codec.DeltaID, Uncompressed: 64, HasBase: true, DeltaBase: 8, Remember: true}, eagerTestBulk(t, []byte("a delta payload"))},
		{stageCodecInfo{CodecID: codec.FlateID, Uncompressed: 0}, mercury.Bulk{Addr: "inproc://sim-3", ID: 42, Size: 1 << 20}},
		// A small raw block rides in the frame.
		{stageCodecInfo{CodecID: codec.RawID, Uncompressed: 4096}, eagerTestBulk(t, bytes.Repeat([]byte{0xC3}, 4096))},
		// An empty block: one record, no payload, nothing to transfer.
		{stageCodecInfo{CodecID: codec.RawID}, mercury.Bulk{Addr: "inproc://sim-3", ID: 43}},
	}
	for _, c := range cases {
		recs := oneRec(meta, c.ci, c.bulk)
		head, tail := appendStageFrame(nil, "viz", 9, recs, c.bulk)
		if len(head) != stageBatchMsgSize("viz", recs, c.bulk) {
			t.Fatalf("head length %d, stageBatchMsgSize %d", len(head), stageBatchMsgSize("viz", recs, c.bulk))
		}
		frame := append(head, tail...)
		pipeline, it, got, gotBulk, err := decodeStageBatchMsg(frame)
		if err != nil {
			t.Fatal(err)
		}
		if pipeline != "viz" || it != 9 || len(got) != 1 || got[0] != recs[0] || !sameBulk(gotBulk, c.bulk) {
			t.Fatalf("round trip: %q %d %+v %+v", pipeline, it, got, gotBulk)
		}
	}
}

// TestAppendStageMsgNoAllocWithCapacity: assembling a per-block Stage's
// frame — one record, the block riding in the handle — into its sized pooled
// buffer does not allocate, and the block is not copied: it is the frame's
// tail, the exposed buffer itself.
func TestAppendStageMsgNoAllocWithCapacity(t *testing.T) {
	region := bytes.Repeat([]byte{7}, 512)
	bulk := eagerTestBulk(t, region)
	ci := stageCodecInfo{CodecID: codec.DeltaID, Uncompressed: 10, HasBase: true, DeltaBase: 3, Remember: true}
	recs := oneRec(BlockMeta{Field: "v", Type: "raw"}, ci, bulk)
	scratch := make([]byte, 0, stageBatchMsgSize("p", recs, bulk))
	head, tail := appendStageFrame(scratch, "p", 1, recs, bulk)
	if len(head) != cap(scratch) || len(tail) != len(region) || &tail[0] != &region[0] {
		t.Fatalf("head %d of %d bytes, tail %d bytes not aliasing the region", len(head), cap(scratch), len(tail))
	}
	allocs := testing.AllocsPerRun(20, func() {
		appendStageFrame(scratch, "p", 1, recs, bulk)
	})
	if allocs != 0 {
		t.Fatalf("appendStageFrame into sized buffer allocates %.1f times", allocs)
	}
}

// v2StageFrame hand-assembles a frame of the retired single-block wire
// version 2 (codec block first, then pipeline, iteration, metadata, handle).
func v2StageFrame(pipeline string, it uint64, meta BlockMeta, bulk mercury.Bulk) []byte {
	f := []byte{2, codec.RawID}
	f = appendU64(f, uint64(bulk.Size))
	f = appendU64(f, 0)
	f = append(f, 0)
	f = appendLenString(f, pipeline)
	f = appendU64(f, it)
	f = appendLenString(f, meta.Field)
	f = appendU32(f, uint32(int32(meta.BlockID)))
	f = appendLenString(f, meta.Type)
	for _, d := range meta.Dims {
		f = appendU32(f, uint32(int32(d)))
	}
	for _, o := range meta.Origin {
		f = appendU64(f, math.Float64bits(o))
	}
	for _, s := range meta.Spacing {
		f = appendU64(f, math.Float64bits(s))
	}
	enc := bulk.Encode()
	f = appendU32(f, uint32(len(enc)))
	return append(f, enc...)
}

// unregisteredCodec stands for a codec some other binary knows and this one
// does not: raw's bytes under an id nothing registers.
type unregisteredCodec struct{ codec.Raw }

func (unregisteredCodec) ID() uint8    { return 0xC8 }
func (unregisteredCodec) Name() string { return "unregistered" }

// TestStageRejectsV2Frame: two well-formed frames a server must refuse
// whole. The single-block wire version is gone — a version-2 frame is a
// malformed frame to the decoder and ErrStageWire from the server — and a
// record naming a codec id the server's binary does not register is refused
// before anything is pulled. Both are remote errors the client must not
// retry, and neither stages a block; a handle that sends such a record gets
// the refusal back from Stage on the first attempt.
func TestStageRejectsV2Frame(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	addr := d.servers[0].Addr()
	h := d.client.Handle("viz", addr)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	meta := BlockMeta{Field: "v", Type: "raw"}
	region := []byte("a block")
	cls := d.clientM.Class()
	bulk := cls.Expose(region)
	v2 := v2StageFrame("viz", 1, meta, bulk)
	if _, _, _, _, err := decodeStageBatchMsg(v2); !errors.Is(err, ErrStageWire) {
		t.Fatalf("decoding a version-2 frame: %v, want ErrStageWire", err)
	}
	ci := stageCodecInfo{CodecID: unregisteredCodec{}.ID(), Uncompressed: uint64(len(region))}
	unknown := appendStageBatchMsg(nil, "viz", 1, oneRec(meta, ci, bulk), bulk)
	refusal := fmt.Sprintf("colza: stage codec %d not registered on %s", ci.CodecID, addr)
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"version-2 frame", v2, ErrStageWire.Error()},
		{"unregistered codec id", unknown, refusal},
	} {
		_, err := d.clientM.CallProvider(addr, ProviderID, "stage", tc.frame, time.Second)
		var re *mercury.RemoteError
		if !errors.As(err, &re) || re.Msg != tc.want {
			t.Fatalf("staging a %s: %v, want the server's %q", tc.name, err, tc.want)
		}
		if Retryable(err) {
			t.Fatalf("staging a %s: %v is retryable", tc.name, err)
		}
	}
	cls.Release(bulk)

	retries := d.client.observer().Counter("colza.stage.retries", "pipeline", "viz")
	retriesBefore := retries.Value()
	h.codec.forced = unregisteredCodec{}
	err := h.Stage(1, meta, region)
	var re *mercury.RemoteError
	if !errors.As(err, &re) || re.Msg != refusal {
		t.Fatalf("Stage through an unregistered codec: %v, want the server's %q", err, refusal)
	}
	if got := retries.Value() - retriesBefore; got != 0 {
		t.Fatalf("Stage burned %d retries on a refusal", got)
	}
	if got := d.servers[0].Obs.Snapshot().Counters["colza.staged.blocks{pipeline=viz}"]; got != 0 {
		t.Fatalf("server staged %d blocks from refused frames", got)
	}
	if c, s := cls.ExposedBytes(), d.servers[0].MI.Class().ExposedBytes(); c != 0 || s != 0 {
		t.Fatalf("exposed bytes after refused frames: client %d, server %d; want 0 and 0", c, s)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeStageMsgMalformed: the hostile-frame cases of a per-block
// Stage's one-record frame — every truncation, a wrong version, trailing
// bytes, unknown flag bits, an oversized claim — are errors, never panics.
func TestDecodeStageMsgMalformed(t *testing.T) {
	meta := BlockMeta{Field: "v", Type: "raw"}
	bulk := mercury.Bulk{Addr: "inproc://a", ID: 1, Size: 10}
	good := appendStageBatchMsg(nil, "p", 1, oneRec(meta, stageCodecInfo{Uncompressed: 10}, bulk), bulk)
	for n := 0; n < len(good); n++ {
		if _, _, _, _, err := decodeStageBatchMsg(good[:n]); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", n)
		}
	}
	for _, version := range []byte{0, 1, 2, 4, 0xFF} {
		bad := append([]byte(nil), good...)
		bad[0] = version
		if _, _, _, _, err := decodeStageBatchMsg(bad); err == nil {
			t.Fatalf("version %d accepted", version)
		}
	}
	// Trailing garbage (bulk length no longer spans the rest).
	if _, _, _, _, err := decodeStageBatchMsg(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Unknown flag bits must be rejected, not silently dropped on re-encode.
	flagged := append([]byte(nil), good...)
	flagged[1+4+len("p")+8+4+1+8+8] |= 0x80
	if _, _, _, _, err := decodeStageBatchMsg(flagged); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
	// An uncompressed length beyond the 64 MiB bound must be rejected so a
	// hostile frame cannot size a server-side buffer.
	huge := appendStageBatchMsg(nil, "p", 1, oneRec(meta, stageCodecInfo{Uncompressed: maxStageUncompressed + 1}, bulk), bulk)
	if _, _, _, _, err := decodeStageBatchMsg(huge); err == nil {
		t.Fatal("oversized uncompressed length accepted")
	}
	// The record's payload must be the whole region.
	recs := oneRec(meta, stageCodecInfo{Uncompressed: 10}, bulk)
	recs[0].PayloadLen--
	if _, _, _, _, err := decodeStageBatchMsg(appendStageBatchMsg(nil, "p", 1, recs, bulk)); err == nil {
		t.Fatal("payload shorter than the region accepted")
	}
}

// eagerTestBulk returns a handle that carries region inside its encoding, as
// Expose hands out for a small region on a transport without a shared arena.
func eagerTestBulk(tb testing.TB, region []byte) mercury.Bulk {
	tb.Helper()
	ep, err := na.NewInprocNetwork().Listen("sim-3")
	if err != nil {
		tb.Fatal(err)
	}
	cls := mercury.New(ep)
	tb.Cleanup(func() { cls.Close() })
	bulk := cls.Expose(region)
	if len(bulk.Encode()) <= len(region) {
		tb.Fatalf("a %d-byte region did not go eager", len(region))
	}
	return bulk
}

// TestDecodeStageMsgEagerRegion: a frame whose handle carries the block
// decodes without copying it (the handle aliases the frame), and an embedded
// region that disagrees with the handle's size, or runs past the frame, is a
// malformed frame.
func TestDecodeStageMsgEagerRegion(t *testing.T) {
	region := bytes.Repeat([]byte{0x5A}, 300)
	bulk := eagerTestBulk(t, region)
	f := appendStageBatchMsg(nil, "p", 1, oneRec(BlockMeta{Field: "v", Type: "raw"}, stageCodecInfo{Uncompressed: 300}, bulk), bulk)
	decode := func(p []byte) (mercury.Bulk, error) {
		_, _, _, b, err := decodeStageBatchMsg(p)
		return b, err
	}
	got, err := decode(f)
	if err != nil || !sameBulk(got, bulk) {
		t.Fatalf("decode: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() { decode(f) })
	if allocs > 6 { // metadata strings and the record slice, never the region
		t.Fatalf("decoding a frame with an eager region allocates %.1f times", allocs)
	}
	// The region is the frame's tail, preceded by its u32 length.
	lenAt := len(f) - len(region) - 4
	lying := append([]byte(nil), f...)
	binary.LittleEndian.PutUint32(lying[lenAt:], uint32(len(region)-1))
	if _, err := decode(lying); err == nil {
		t.Fatal("embedded length != handle size accepted")
	}
	binary.LittleEndian.PutUint32(lying[lenAt:], 0xFFFFFF00)
	if _, err := decode(lying); err == nil {
		t.Fatal("embedded length past the frame accepted")
	}
	for cut := 1; cut <= len(region)+4; cut += 37 {
		if _, err := decode(f[:len(f)-cut]); err == nil {
			t.Fatalf("frame truncated by %d bytes accepted", cut)
		}
	}
}

// fuzzStageFrame is the property both frame fuzzers check: the stage decoder
// fronts the only binary RPC on the hot path, so arbitrary bytes must never
// panic, and any frame that decodes must re-encode to exactly itself (so
// nothing hostile hides in an accepted frame).
func fuzzStageFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pipeline, it, recs, bulk, err := decodeStageBatchMsg(data)
		if err != nil {
			return
		}
		re := appendStageBatchMsg(nil, pipeline, it, recs, bulk)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data)
		}
	})
}

// FuzzStageFrameDecode seeds the frame fuzzer with the frames a per-block
// Stage sends: one record per frame, covering every codec ID and the delta
// base/flag field combinations of the conformance corpus, plus the retired
// version-2 layout.
func FuzzStageFrameDecode(f *testing.F) {
	one := func(pipeline string, it uint64, meta BlockMeta, ci stageCodecInfo, bulk mercury.Bulk) []byte {
		return appendStageBatchMsg(nil, pipeline, it, oneRec(meta, ci, bulk), bulk)
	}
	f.Add([]byte{})
	f.Add([]byte{stageBatchWireVersion})
	bulk := mercury.Bulk{Addr: "inproc://a", ID: 3, Size: 7}
	f.Add(one("viz", 1, BlockMeta{Field: "v", Type: "raw"}, stageCodecInfo{Uncompressed: 7}, bulk))
	f.Add(one("", 0, BlockMeta{}, stageCodecInfo{}, mercury.Bulk{}))
	for _, c := range codec.All() {
		f.Add(one("p", 2, BlockMeta{Field: "u"}, stageCodecInfo{CodecID: c.ID(), Uncompressed: 64}, bulk))
	}
	f.Add(one("p", 3, BlockMeta{Field: "u"},
		stageCodecInfo{CodecID: codec.DeltaID, Uncompressed: 1 << 16, HasBase: true, DeltaBase: 2, Remember: true}, bulk))
	// A huge claimed string length over a short buffer.
	f.Add([]byte{stageBatchWireVersion, 0xFF, 0xFF, 0xFF, 0x7F, 'x'})
	// A block riding in the frame: intact, with a lying embedded length, and
	// cut inside the region.
	eager := one("viz", 4, BlockMeta{Field: "v", Type: "raw"}, stageCodecInfo{Uncompressed: 7}, eagerTestBulk(f, []byte("7 bytes")))
	f.Add(eager)
	lying := append([]byte(nil), eager...)
	lying[len(lying)-7-4]++
	f.Add(lying)
	f.Add(eager[:len(eager)-3])
	f.Add(v2StageFrame("viz", 1, BlockMeta{Field: "v", Type: "raw"}, bulk))
	fuzzStageFrame(f)
}

// TestDecodeStageMsgBoundedAllocs: a malformed frame with a huge claimed
// string length fails before anything is allocated for it.
func TestDecodeStageMsgBoundedAllocs(t *testing.T) {
	frame := []byte{stageBatchWireVersion, 0xFF, 0xFF, 0xFF, 0x7F, 'x', 'y'}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, _, err := decodeStageBatchMsg(frame); err == nil {
			t.Fatal("malformed frame accepted")
		}
	})
	if allocs > 0 {
		t.Fatalf("malformed decode allocates %.1f times", allocs)
	}
}

// sameBulk compares two handles by their encodings (Bulk holds the eager
// region's slice, so == does not apply).
func sameBulk(a, b mercury.Bulk) bool { return bytes.Equal(a.Encode(), b.Encode()) }

// batchTestRecs builds a representative multi-record frame: every codec ID,
// a delta record with a base, and a negative block ID.
func batchTestRecs() []stageBatchRec {
	return []stageBatchRec{
		{
			CI:   stageCodecInfo{CodecID: codec.RawID, Uncompressed: 100},
			Meta: BlockMeta{Field: "density", BlockID: -7, Type: "imagedata", Dims: [3]int{32, 16, 8}, Origin: [3]float64{-1, 0.5, 3e9}, Spacing: [3]float64{0.1, 0.2, 0.3}},

			PayloadLen: 100,
		},
		{
			CI:         stageCodecInfo{CodecID: codec.FlateID, Uncompressed: 4096},
			Meta:       BlockMeta{Field: "v", BlockID: 1, Type: "raw"},
			PayloadLen: 512,
		},
		{
			CI:         stageCodecInfo{CodecID: codec.ShuffleID, Uncompressed: 64},
			Meta:       BlockMeta{Field: "u", BlockID: 2, Type: "raw"},
			PayloadLen: 64,
		},
		{
			CI:         stageCodecInfo{CodecID: codec.DeltaID, Uncompressed: 64, HasBase: true, DeltaBase: 8, Remember: true},
			Meta:       BlockMeta{Field: "u", BlockID: 3, Type: "raw"},
			PayloadLen: 24,
		},
	}
}

func batchTestBulk(recs []stageBatchRec) mercury.Bulk {
	total := 0
	for _, r := range recs {
		total += r.PayloadLen
	}
	return mercury.Bulk{Addr: "inproc://sim-3", ID: 42, Size: total}
}

func TestStageBatchRoundTrip(t *testing.T) {
	recs := batchTestRecs()
	bulk := batchTestBulk(recs)
	frame := appendStageBatchMsg(nil, "viz", 9, recs, bulk)
	if len(frame) != stageBatchMsgSize("viz", recs, bulk) {
		t.Fatalf("frame length %d, stageBatchMsgSize %d", len(frame), stageBatchMsgSize("viz", recs, bulk))
	}
	pipeline, it, gotRecs, gotBulk, err := decodeStageBatchMsg(frame)
	if err != nil {
		t.Fatal(err)
	}
	if pipeline != "viz" || it != 9 || !sameBulk(gotBulk, bulk) {
		t.Fatalf("round trip: %q %d %+v", pipeline, it, gotBulk)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("%d records, want %d", len(gotRecs), len(recs))
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, gotRecs[i], recs[i])
		}
	}
}

func TestStageBatchSingleRecordRoundTrip(t *testing.T) {
	recs := []stageBatchRec{{
		CI:         stageCodecInfo{CodecID: codec.RawID, Uncompressed: 7},
		Meta:       BlockMeta{Field: "v", Type: "raw"},
		PayloadLen: 7,
	}}
	bulk := mercury.Bulk{Addr: "inproc://a", ID: 3, Size: 7}
	frame := appendStageBatchMsg(nil, "p", 1, recs, bulk)
	_, _, gotRecs, _, err := decodeStageBatchMsg(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRecs) != 1 || gotRecs[0] != recs[0] {
		t.Fatalf("round trip: %+v", gotRecs)
	}
}

func TestAppendStageBatchMsgNoAllocWithCapacity(t *testing.T) {
	recs := batchTestRecs()
	bulk := batchTestBulk(recs)
	scratch := make([]byte, 0, stageBatchMsgSize("p", recs, bulk))
	allocs := testing.AllocsPerRun(20, func() {
		appendStageFrame(scratch, "p", 1, recs, bulk)
	})
	if allocs != 0 {
		t.Fatalf("appendStageFrame into sized buffer allocates %.1f times", allocs)
	}
}

func TestDecodeStageBatchMsgMalformed(t *testing.T) {
	recs := batchTestRecs()
	bulk := batchTestBulk(recs)
	good := appendStageBatchMsg(nil, "p", 1, recs, bulk)
	// Every truncation must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, _, _, _, err := decodeStageBatchMsg(good[:n]); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", n)
		}
	}
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), good...))
	}
	// Wrong version byte (the retired single-block version).
	if _, _, _, _, err := decodeStageBatchMsg(mutate(func(b []byte) []byte { b[0] = 2; return b })); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Trailing garbage (bulk length no longer spans the rest).
	if _, _, _, _, err := decodeStageBatchMsg(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	countOff := 1 + 4 + len("p") + 8
	// Zero block count: an empty batch is never sent, so never accepted.
	if _, _, _, _, err := decodeStageBatchMsg(mutate(func(b []byte) []byte {
		b[countOff], b[countOff+1], b[countOff+2], b[countOff+3] = 0, 0, 0, 0
		return b
	})); err == nil {
		t.Fatal("zero block count accepted")
	}
	// A count beyond maxStageBatchBlocks must be rejected before any
	// per-record work.
	if _, _, _, _, err := decodeStageBatchMsg(mutate(func(b []byte) []byte {
		b[countOff], b[countOff+1], b[countOff+2], b[countOff+3] = 0xFF, 0xFF, 0xFF, 0x7F
		return b
	})); err == nil {
		t.Fatal("oversized block count accepted")
	}
	// Unknown flag bits in the first record.
	flagOff := countOff + 4 + 1 + 8 + 8
	if _, _, _, _, err := decodeStageBatchMsg(mutate(func(b []byte) []byte { b[flagOff] |= 0x80; return b })); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
	// An uncompressed length beyond the 64 MiB bound holds per record.
	big := batchTestRecs()
	big[1].CI.Uncompressed = maxStageUncompressed + 1
	if _, _, _, _, err := decodeStageBatchMsg(appendStageBatchMsg(nil, "p", 1, big, bulk)); err == nil {
		t.Fatal("oversized uncompressed length accepted")
	}
	// A payload length beyond the encoded-size ceiling.
	big = batchTestRecs()
	big[2].PayloadLen = maxStageBatchPayload + 1
	bigBulk := batchTestBulk(big)
	if _, _, _, _, err := decodeStageBatchMsg(appendStageBatchMsg(nil, "p", 1, big, bigBulk)); err == nil {
		t.Fatal("oversized payload length accepted")
	}
	// Payload lengths that do not sum to the bulk size: the implicit
	// offsets would run off (or leave a tail of) the pulled region.
	short := batchTestBulk(recs)
	short.Size--
	if _, _, _, _, err := decodeStageBatchMsg(appendStageBatchMsg(nil, "p", 1, recs, short)); err == nil {
		t.Fatal("payload/bulk size mismatch accepted")
	}
}

// payloadFrame is a stage frame whose records carry the given payload
// lengths over one pulled region of their sum.
func payloadFrame(lens ...int) []byte {
	recs := make([]stageBatchRec, len(lens))
	for i, n := range lens {
		recs[i] = stageBatchRec{Meta: BlockMeta{Field: "v", BlockID: i}, PayloadLen: n}
	}
	return appendStageBatchMsg(nil, "p", 1, recs, batchTestBulk(recs))
}

// hugeStageFrame is the frame the per-frame payload bound exists for: the
// most records a frame may claim, each at the per-record ceiling — about
// 6 MB of frame naming an 8 TiB region.
func hugeStageFrame() []byte {
	lens := make([]int, maxStageBatchBlocks)
	for i := range lens {
		lens[i] = maxStageBatchPayload
	}
	return payloadFrame(lens...)
}

// TestDecodeStageBatchMsgPayloadSum: the frames a client builds decode, up
// to the batcher's outgrow case; a frame whose payloads sum past that is
// refused at decode, before the server sizes a buffer for its region.
func TestDecodeStageBatchMsgPayloadSum(t *testing.T) {
	for _, c := range []struct {
		name  string
		frame []byte
		ok    bool
	}{
		{"one record at the ceiling", payloadFrame(maxStageBatchPayload), true},
		{"a batch below its trigger, outgrown by a record at the ceiling",
			payloadFrame(batchMaxBytes-1, maxStageBatchPayload), true},
		{"the largest frame", payloadFrame(batchMaxBytes/2, batchMaxBytes/2, maxStageBatchPayload), true},
		{"one byte past the largest frame", payloadFrame(batchMaxBytes, maxStageBatchPayload, 1), false},
		{"two records at the ceiling", payloadFrame(maxStageBatchPayload, maxStageBatchPayload), false},
		{"65,536 records at the ceiling", hugeStageFrame(), false},
	} {
		_, _, _, bulk, err := decodeStageBatchMsg(c.frame)
		if c.ok && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: accepted, a %d-byte region", c.name, bulk.Size)
		}
	}
}

// FuzzStageBatchDecode seeds the frame fuzzer (fuzzStageFrame) with the
// frames a coalescing handle sends: several records over one region.
func FuzzStageBatchDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{stageBatchWireVersion})
	recs := batchTestRecs()
	f.Add(appendStageBatchMsg(nil, "viz", 9, recs, batchTestBulk(recs)))
	one := recs[:1]
	f.Add(appendStageBatchMsg(nil, "p", 1, one, batchTestBulk(one)))
	for _, c := range codec.All() {
		r := []stageBatchRec{{
			CI:         stageCodecInfo{CodecID: c.ID(), Uncompressed: 64},
			Meta:       BlockMeta{Field: "u"},
			PayloadLen: 64,
		}}
		f.Add(appendStageBatchMsg(nil, "p", 2, r, batchTestBulk(r)))
	}
	// A small batch riding in the frame: intact, with a lying embedded
	// length, and cut inside the region.
	small := []stageBatchRec{
		{CI: stageCodecInfo{Uncompressed: 3}, Meta: BlockMeta{Field: "u"}, PayloadLen: 3},
		{CI: stageCodecInfo{Uncompressed: 4}, Meta: BlockMeta{Field: "u", BlockID: 1}, PayloadLen: 4},
	}
	eager := appendStageBatchMsg(nil, "viz", 4, small, eagerTestBulk(f, []byte("abcdefg")))
	f.Add(eager)
	lying := append([]byte(nil), eager...)
	lying[len(lying)-7-4]++
	f.Add(lying)
	f.Add(eager[:len(eager)-3])
	// A huge claimed pipeline length over a short buffer.
	f.Add([]byte{stageBatchWireVersion, 0xFF, 0xFF, 0xFF, 0x7F, 'x'})
	// A huge claimed count over an empty body.
	f.Add([]byte{stageBatchWireVersion, 1, 0, 0, 0, 'p', 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0, 0})
	// Records whose payloads sum to 8 TiB.
	f.Add(hugeStageFrame())
	fuzzStageFrame(f)
}

// TestDecodeStageBatchMsgBoundedAllocs: a frame claiming the maximum block
// count over a near-empty body must allocate for what actually parses, not
// for the claim.
func TestDecodeStageBatchMsgBoundedAllocs(t *testing.T) {
	// version, pipeline "p", iteration, count=65535, then nothing: record 0
	// fails to parse immediately.
	frame := []byte{stageBatchWireVersion, 1, 0, 0, 0, 'p', 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0, 0}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, _, err := decodeStageBatchMsg(frame); err == nil {
			t.Fatal("malformed frame accepted")
		}
	})
	// The record slice may be pre-sized (capped well below the claim); the
	// claim itself must not scale the allocation count.
	if allocs > 4 {
		t.Fatalf("malformed decode allocates %.1f times", allocs)
	}
}

func TestStageBatchRespRoundTrip(t *testing.T) {
	for _, errs := range [][]stageBatchBlockErr{
		nil,
		{{Index: 0, Kind: stageBatchErrRemote, Msg: "colza: pipeline stage: boom"}},
		{
			{Index: 2, Kind: stageBatchErrDeltaMismatch, Msg: "colza: stage delta base mismatch: base 3"},
			{Index: 5, Kind: stageBatchErrRemote, Msg: ""},
		},
	} {
		resp := appendStageBatchResp(nil, errs)
		if len(resp) != stageBatchRespSize(errs) {
			t.Fatalf("resp length %d, stageBatchRespSize %d", len(resp), stageBatchRespSize(errs))
		}
		got, err := decodeStageBatchResp(resp, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(errs) {
			t.Fatalf("%d errors, want %d", len(got), len(errs))
		}
		for i := range errs {
			if got[i] != errs[i] {
				t.Fatalf("error %d: got %+v want %+v", i, got[i], errs[i])
			}
		}
	}
}

func TestDecodeStageBatchRespMalformed(t *testing.T) {
	errs := []stageBatchBlockErr{
		{Index: 1, Kind: stageBatchErrRemote, Msg: "a"},
		{Index: 3, Kind: stageBatchErrDeltaMismatch, Msg: "b"},
	}
	good := appendStageBatchResp(nil, errs)
	for n := 0; n < len(good); n++ {
		if _, err := decodeStageBatchResp(good[:n], 8); err == nil {
			t.Fatalf("truncated response of %d bytes accepted", n)
		}
	}
	// Wrong version.
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF
	if _, err := decodeStageBatchResp(bad, 8); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Trailing bytes.
	if _, err := decodeStageBatchResp(append(append([]byte(nil), good...), 0), 8); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// More errors than the batch has blocks.
	if _, err := decodeStageBatchResp(good, 1); err == nil {
		t.Fatal("error count beyond block count accepted")
	}
	// An index at/beyond the block count.
	if _, err := decodeStageBatchResp(good, 3); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	// An unknown error kind.
	bad = append([]byte(nil), good...)
	bad[1+4+4] = 9
	if _, err := decodeStageBatchResp(bad, 8); err == nil {
		t.Fatal("unknown error kind accepted")
	}
}
