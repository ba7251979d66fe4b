package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"colza/internal/codec"
	"colza/internal/mercury"
	"colza/internal/na"
)

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
	}
	for _, c := range cases {
		ci, bulk := c.ci, c.bulk
		frame := appendStageMsg(nil, "viz", 9, meta, ci, bulk)
		if len(frame) != stageMsgSize("viz", meta, bulk) {
			t.Fatalf("frame length %d, stageMsgSize %d", len(frame), stageMsgSize("viz", meta, bulk))
		}
		pipeline, it, gotMeta, gotCI, gotBulk, err := decodeStageMsg(frame)
		if err != nil {
			t.Fatal(err)
		}
		if pipeline != "viz" || it != 9 || gotMeta != meta || !sameBulk(gotBulk, bulk) || gotCI != ci {
			t.Fatalf("round trip: %q %d %+v %+v %+v", pipeline, it, gotMeta, gotCI, gotBulk)
		}
	}
}

func TestAppendStageMsgNoAllocWithCapacity(t *testing.T) {
	meta := BlockMeta{Field: "v", Type: "raw"}
	bulk := mercury.Bulk{Addr: "inproc://a", ID: 1, Size: 10}
	ci := stageCodecInfo{CodecID: codec.DeltaID, Uncompressed: 10, HasBase: true, DeltaBase: 3, Remember: true}
	scratch := make([]byte, 0, stageMsgSize("p", meta, bulk))
	allocs := testing.AllocsPerRun(20, func() {
		appendStageMsg(scratch, "p", 1, meta, ci, bulk)
	})
	if allocs != 0 {
		t.Fatalf("appendStageMsg into sized buffer allocates %.1f times", allocs)
	}
}

func TestDecodeStageMsgMalformed(t *testing.T) {
	meta := BlockMeta{Field: "v", Type: "raw"}
	bulk := mercury.Bulk{Addr: "inproc://a", ID: 1, Size: 10}
	good := appendStageMsg(nil, "p", 1, meta, stageCodecInfo{Uncompressed: 10}, bulk)
	// Every truncation must error, never panic.
	for n := 0; n < len(good); n++ {
		if _, _, _, _, _, err := decodeStageMsg(good[:n]); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", n)
		}
	}
	// Wrong version byte.
	bad := append([]byte(nil), good...)
	bad[0] = 0xFF
	if _, _, _, _, _, err := decodeStageMsg(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Trailing garbage (bulk length no longer spans the rest).
	if _, _, _, _, _, err := decodeStageMsg(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// Unknown flag bits must be rejected, not silently dropped on re-encode.
	flagged := appendStageMsg(nil, "p", 1, meta, stageCodecInfo{Uncompressed: 10}, bulk)
	flagged[1+1+8+8] |= 0x80
	if _, _, _, _, _, err := decodeStageMsg(flagged); err == nil {
		t.Fatal("unknown flag bits accepted")
	}
	// An uncompressed length beyond the 64 MiB bound must be rejected so a
	// hostile frame cannot size a server-side buffer.
	huge := appendStageMsg(nil, "p", 1, meta, stageCodecInfo{Uncompressed: maxStageUncompressed + 1}, bulk)
	if _, _, _, _, _, err := decodeStageMsg(huge); err == nil {
		t.Fatal("oversized uncompressed length accepted")
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
	if bulk.EncodedSize() <= len(region) {
		tb.Fatalf("a %d-byte region did not go eager", len(region))
	}
	return bulk
}

// TestDecodeStageMsgEagerRegion: a frame whose handle carries the block
// decodes without copying it (the handle aliases the frame), and an embedded
// region that disagrees with the handle's size, or runs past the frame, is a
// malformed frame — for the batch decoder as well.
func TestDecodeStageMsgEagerRegion(t *testing.T) {
	region := bytes.Repeat([]byte{0x5A}, 300)
	bulk := eagerTestBulk(t, region)
	meta := BlockMeta{Field: "v", Type: "raw"}
	frame := appendStageMsg(nil, "p", 1, meta, stageCodecInfo{Uncompressed: 300}, bulk)
	recs := []stageBatchRec{{CI: stageCodecInfo{Uncompressed: 300}, Meta: meta, PayloadLen: 300}}
	batch := appendStageBatchMsg(nil, "p", 1, recs, bulk)
	for name, f := range map[string][]byte{"stage": frame, "stage_batch": batch} {
		decode := func(p []byte) (mercury.Bulk, error) {
			if name == "stage" {
				_, _, _, _, b, err := decodeStageMsg(p)
				return b, err
			}
			_, _, _, b, err := decodeStageBatchMsg(p)
			return b, err
		}
		got, err := decode(f)
		if err != nil || !sameBulk(got, bulk) {
			t.Fatalf("%s: decode: %v", name, err)
		}
		allocs := testing.AllocsPerRun(20, func() { decode(f) })
		if allocs > 6 { // metadata strings and the record slice, never the region
			t.Fatalf("%s: decoding a frame with an eager region allocates %.1f times", name, allocs)
		}
		// The region is the frame's tail, preceded by its u32 length.
		lenAt := len(f) - len(region) - 4
		lying := append([]byte(nil), f...)
		binary.LittleEndian.PutUint32(lying[lenAt:], uint32(len(region)-1))
		if _, err := decode(lying); err == nil {
			t.Fatalf("%s: embedded length != handle size accepted", name)
		}
		binary.LittleEndian.PutUint32(lying[lenAt:], 0xFFFFFF00)
		if _, err := decode(lying); err == nil {
			t.Fatalf("%s: embedded length past the frame accepted", name)
		}
		for cut := 1; cut <= len(region)+4; cut += 37 {
			if _, err := decode(f[:len(f)-cut]); err == nil {
				t.Fatalf("%s: frame truncated by %d bytes accepted", name, cut)
			}
		}
	}
}

// FuzzStageFrameDecode: the stage decoder fronts the only binary RPC on the
// hot path; arbitrary bytes must never panic, and any frame that decodes
// must re-encode to exactly itself. Seeds cover every codec ID and the
// delta base/flag field combinations of the conformance corpus.
func FuzzStageFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{stageWireVersion})
	bulk := mercury.Bulk{Addr: "inproc://a", ID: 3, Size: 7}
	f.Add(appendStageMsg(nil, "viz", 1, BlockMeta{Field: "v", Type: "raw"}, stageCodecInfo{Uncompressed: 7}, bulk))
	f.Add(appendStageMsg(nil, "", 0, BlockMeta{}, stageCodecInfo{}, mercury.Bulk{}))
	for _, c := range codec.All() {
		f.Add(appendStageMsg(nil, "p", 2, BlockMeta{Field: "u"}, stageCodecInfo{CodecID: c.ID(), Uncompressed: 64}, bulk))
	}
	f.Add(appendStageMsg(nil, "p", 3, BlockMeta{Field: "u"},
		stageCodecInfo{CodecID: codec.DeltaID, Uncompressed: 1 << 16, HasBase: true, DeltaBase: 2, Remember: true}, bulk))
	// A huge claimed string length over a short buffer.
	f.Add([]byte{stageWireVersion, 0xFF, 0xFF, 0xFF, 0x7F, 'x'})
	// A block riding in the frame: intact, with a lying embedded length, and
	// cut inside the region.
	eager := appendStageMsg(nil, "viz", 4, BlockMeta{Field: "v", Type: "raw"}, stageCodecInfo{Uncompressed: 7},
		eagerTestBulk(f, []byte("7 bytes")))
	f.Add(eager)
	lying := append([]byte(nil), eager...)
	lying[len(lying)-7-4]++
	f.Add(lying)
	f.Add(eager[:len(eager)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		pipeline, it, meta, ci, bulk, err := decodeStageMsg(data)
		if err != nil {
			return
		}
		re := appendStageMsg(nil, pipeline, it, meta, ci, bulk)
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, data)
		}
	})
}

// TestDecodeStageMsgBoundedAllocs: malformed frames with huge claimed
// lengths must not allocate proportionally to the claim.
func TestDecodeStageMsgBoundedAllocs(t *testing.T) {
	frame := []byte{stageWireVersion, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F, 'x', 'y'}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, _, _, err := decodeStageMsg(frame); err == nil {
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
