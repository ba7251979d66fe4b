package core

import (
	"bytes"
	"testing"

	"colza/internal/codec"
	"colza/internal/mercury"
)

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
		appendStageBatchMsg(scratch, "p", 1, recs, bulk)
	})
	if allocs != 0 {
		t.Fatalf("appendStageBatchMsg into sized buffer allocates %.1f times", allocs)
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
	// Wrong version byte (a v2 single-block frame must not decode as v3).
	if _, _, _, _, err := decodeStageBatchMsg(mutate(func(b []byte) []byte { b[0] = stageWireVersion; return b })); err == nil {
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
	// An uncompressed length beyond the per-block 64 MiB bound: batching
	// must not weaken the v2 decode limits.
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

// FuzzStageBatchDecode: the batched decoder fronts the server's stage_batch
// RPC; arbitrary bytes must never panic, and any frame that decodes must
// re-encode to exactly itself (so nothing hostile hides in an accepted
// frame).
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
			{Index: 2, Kind: stageBatchErrDeltaMismatch, Msg: deltaMismatchText + ": base 3"},
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
