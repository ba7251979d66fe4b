package codec

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"colza/internal/bufpool"
)

// buildFrame hand-assembles a Shuffle frame from an already shuffled block
// and one mode per segment, through a Flate of its own: the layout as the
// type comment states it, not as Encode happens to emit it.
func buildFrame(t *testing.T, stride byte, shuffled, modes []byte) []byte {
	t.Helper()
	frame := append([]byte{stride | segmentedFlag}, modes...)
	var packed []byte
	for i, mode := range modes {
		seg := segment(shuffled, i)
		switch mode {
		case segRaw:
			frame = append(frame, seg...)
		case segConst:
			frame = append(frame, seg[0])
		case segPacked:
			packed = append(packed, seg...)
		}
	}
	frame, err := (&Flate{}).Encode(frame, packed)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// pooledOutstanding is the bufpool leak check: Gets not yet matched by a Put.
func pooledOutstanding() int64 {
	gets, _, puts := bufpool.Stats()
	return gets - puts
}

// modesOf classifies every segment of a shuffled block the way Encode does.
func modesOf(shuffled []byte) []byte {
	var modes []byte
	for i := 0; i*segSize < len(shuffled); i++ {
		modes = append(modes, classify(segment(shuffled, i)))
	}
	return modes
}

// TestShuffleSegmentLayout: a hand-built frame per mode, per stride the
// decoder honours, and per tail shape decodes to the original block; where
// the modes are the classifier's own, Encode emits the same frame byte for
// byte.
func TestShuffleSegmentLayout(t *testing.T) {
	grid := float32Grid(3*segSize/4, 31) // three segments of float32
	mixed := append(append(bytes.Repeat([]byte{7}, segSize), randomBytes(segSize, 32)...), grid[:segSize+1]...)
	for _, tc := range []struct {
		name   string
		stride byte
		data   []byte
		modes  []byte // nil: the classifier's, and Encode must agree
	}{
		{"all-raw", 4, randomBytes(segSize+100, 33), []byte{segRaw, segRaw}},
		{"all-constant", 4, bytes.Repeat([]byte{0x42}, segSize+904), nil},
		{"all-packed", 4, grid, []byte{segPacked, segPacked, segPacked}},
		{"classified-float32", 4, grid, nil},
		{"classified-float64", 8, float64Grid(2048, 34), nil},
		{"constant-raw-packed-and-a-1-byte-segment", 1, mixed, []byte{segConst, segRaw, segPacked, segConst}},
		{"raw-where-constant-would-do", 2, bytes.Repeat([]byte{9}, 600), []byte{segRaw}},
		{"packed-where-constant-would-do", 8, make([]byte, 2*segSize), []byte{segPacked, segConst}},
		{"unaligned-tail-stride-4", 4, grid[:2*segSize+3], nil},
		{"unaligned-tail-stride-8", 8, float64Grid(1024, 35)[:segSize+5], nil},
		{"unaligned-tail-stride-2", 2, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{segPacked}},
		{"shorter-than-an-element", 1, []byte{1, 2, 3}, []byte{segRaw}},
		{"empty", 1, nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shuffled := make([]byte, len(tc.data))
			shuffleBytes(shuffled, tc.data, int(tc.stride))
			modes := tc.modes
			if modes == nil {
				modes = modesOf(shuffled)
			}
			frame := buildFrame(t, tc.stride, shuffled, modes)
			before := pooledOutstanding()
			dec, err := Shuffle{}.Decode([]byte("prefix"), frame, len(tc.data))
			if err != nil || !bytes.Equal(dec[6:], tc.data) || string(dec[:6]) != "prefix" {
				t.Fatalf("hand-built frame (modes %v) does not decode: %v", modes, err)
			}
			if leaked := pooledOutstanding() - before; leaked != 0 {
				t.Fatalf("decode left %d pooled buffers out", leaked)
			}
			if tc.modes != nil {
				return
			}
			enc, err := Shuffle{}.Encode(nil, tc.data)
			if err != nil || !bytes.Equal(enc, frame) {
				t.Fatalf("Encode emitted %d bytes (format %#x, err %v), the layout says %d (format %#x)",
					len(enc), enc[0], err, len(frame), frame[0])
			}
		})
	}
}

// TestShuffleRotatingPlanes is the case segments exist for: two float32
// arrays each behind a 13-byte header, as vtk serialises an image's fields.
// The second array starts at a different offset mod 4, so every byte plane
// changes character halfway — within one plane some segments ride raw
// (mantissa noise) and others packed (exponents) — and the encoding beats
// DEFLATE over the whole shuffled block, which is what a per-block decision
// would ship.
func TestShuffleRotatingPlanes(t *testing.T) {
	const floats = 16 << 10
	header := []byte("13-byte-hdr--")
	block := append(append([]byte(nil), header...), float32Grid(floats, 41)...)
	block = append(append(block, header...), float32Grid(floats, 42)...)

	enc, err := Shuffle{}.Encode(nil, block)
	if err != nil || enc[0] != 4|segmentedFlag {
		t.Fatalf("encode: format %#x, %v", enc[0], err)
	}
	dec, err := Shuffle{}.Decode(nil, enc, len(block))
	if err != nil || !bytes.Equal(dec, block) {
		t.Fatalf("round trip: %v", err)
	}
	nseg := (len(block) + segSize - 1) / segSize
	modes, rows := enc[1:1+nseg], len(block)/4
	mixedPlanes := 0
	for plane := 0; plane < 4; plane++ {
		// Only the segments that lie wholly inside this plane.
		first, end := (plane*rows+segSize-1)/segSize, (plane+1)*rows/segSize
		if bytes.IndexByte(modes[first:end], segRaw) >= 0 && bytes.IndexByte(modes[first:end], segPacked) >= 0 {
			mixedPlanes++
		}
	}
	if mixedPlanes == 0 {
		t.Fatalf("no plane mixes raw and packed segments: modes %v", modes)
	}
	shuffled := make([]byte, len(block))
	shuffleBytes(shuffled, block, 4)
	whole, err := (&Flate{}).Encode([]byte{4}, shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(whole) {
		t.Fatalf("segmented %d bytes, whole-block DEFLATE of the shuffled bytes %d", len(enc), len(whole))
	}
}

// TestShuffleStrideChoice: the sample tells float64 from float32 data
// without being told, also behind a header that misaligns the elements.
func TestShuffleStrideChoice(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		want byte
	}{
		{"float32", float32Grid(32*32*32, 21), 4},
		{"float64", float64Grid(16*16*16, 22), 8},
		{"float32-behind-header", append([]byte("13-byte-hdr--"), float32Grid(8192, 23)...), 4},
		{"float64-behind-header", append([]byte("13-byte-hdr--"), float64Grid(8192, 24)...), 8},
		{"float64-under-a-sample", float64Grid(100, 25), 8},
		{"noise", randomBytes(1<<15, 26), 4},
		{"seven-bytes", []byte{1, 2, 3, 4, 5, 6, 7}, 4},
		{"three-bytes", []byte{1, 2, 3}, 1},
	} {
		enc, err := Shuffle{}.Encode(nil, tc.data)
		if err != nil || enc[0] != tc.want|segmentedFlag {
			t.Errorf("%s: format byte %#x (err %v), want stride %d", tc.name, enc[0], err, tc.want)
		}
	}
}

// TestShuffleHostileFrames: every way a frame can disagree with the trusted
// srcLen is ErrCorrupt — no panic, and the pooled scratch goes back.
func TestShuffleHostileFrames(t *testing.T) {
	// constant | raw | packed | packed(97 bytes): every mode, and a packed
	// tail so that a wrong srcLen shows in the stream's length.
	data := append(append(bytes.Repeat([]byte{7}, segSize), randomBytes(segSize, 51)...), float32Grid(segSize/4+25, 52)[:segSize+97]...)
	modes := []byte{segConst, segRaw, segPacked, segPacked}
	good := buildFrame(t, 1, data, modes)
	stream := 1 + len(modes) + 1 + segSize // where the DEFLATE stream starts
	if dec, err := (Shuffle{}).Decode(nil, good, len(data)); err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("the frame the hostile ones derive from: %v", err)
	}
	edit := func(f func(frame []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	overlong, err := (&Flate{}).Encode(append([]byte(nil), good[:stream]...), data[2*segSize-1:])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		frame  []byte
		srcLen int
	}{
		{"empty frame", nil, len(data)},
		{"format byte without the segmented flag", edit(func(f []byte) []byte { f[0] = 1; return f }), len(data)},
		{"stride 3", edit(func(f []byte) []byte { f[0] = 3 | segmentedFlag; return f }), len(data)},
		{"stride 16", edit(func(f []byte) []byte { f[0] = 16 | segmentedFlag; return f }), len(data)},
		{"unknown mode byte", edit(func(f []byte) []byte { f[2] = 3; return f }), len(data)},
		{"mode byte 0xFF", edit(func(f []byte) []byte { f[4] = 0xFF; return f }), len(data)},
		{"mode table shorter than srcLen implies", good[:1+len(modes)-1], len(data)},
		{"raw segment overrunning the input", good[:stream-1], len(data)},
		{"constant segment with no byte", good[:1+len(modes)], len(data)},
		{"constant segment with no byte, stride 4", []byte{4 | segmentedFlag, segConst}, 64},
		{"packed stream missing", good[:stream], len(data)},
		{"packed stream short", good[:len(good)-3], len(data)},
		{"packed stream over-long", overlong, len(data)},
		{"packed stream followed by garbage", append(append([]byte(nil), good...), 0), len(data)},
		{"no stream behind inline segments", []byte{4 | segmentedFlag, segConst, 0}, 64},
		{"garbage for a stream behind inline segments", []byte{4 | segmentedFlag, segConst, 0, 0, 0}, 64},
		{"srcLen one short", good, len(data) - 1},
		{"srcLen one over", good, len(data) + 1},
		{"srcLen a segment over", good, len(data) + segSize},
		{"srcLen zero", good, 0},
	} {
		before := pooledOutstanding()
		out, err := Shuffle{}.Decode([]byte("prefix"), tc.frame, tc.srcLen)
		if !errors.Is(err, ErrCorrupt) || out != nil {
			t.Errorf("%s: %d bytes, err %v; want ErrCorrupt", tc.name, len(out), err)
		}
		if leaked := pooledOutstanding() - before; leaked != 0 {
			t.Errorf("%s: %d pooled buffers not returned", tc.name, leaked)
		}
	}
}

// TestFlateCorruptFramePoolsReader: a peer streaming corrupt frames must not
// cost the server a fresh inflater each (≈40 KiB). The failing paths of
// Flate.Decode — which are also those of Shuffle's packed segments — hand
// the reader back. (sync.Pool drops some Puts under -race, hence the loop.)
func TestFlateCorruptFramePoolsReader(t *testing.T) {
	data := float32Grid(1024, 61)
	f := &Flate{}
	enc, err := f.Encode(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{enc[:len(enc)-2], append(enc, 0), nil} {
		f.readers = sync.Pool{}
		pooled := false
		for try := 0; try < 32 && !pooled; try++ {
			if _, err := f.Decode(nil, bad, len(data)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt frame: %v", err)
			}
			pooled = f.readers.Get() != nil
		}
		if !pooled {
			t.Fatalf("inflater not pooled after a corrupt %d-byte frame", len(bad))
		}
	}
}

// TestClassifyBoundaries pins the two constants' edges: one value is
// constant at any length, exactly rawBits of entropy still packs, a
// little more rides raw, and a segment too short to reach rawBits packs.
func TestClassifyBoundaries(t *testing.T) {
	spread := func(values, each int) []byte { // values distinct bytes, each that often
		var seg []byte
		for v := 0; v < values; v++ {
			seg = append(seg, bytes.Repeat([]byte{byte(v)}, each)...)
		}
		return seg
	}
	above := append(spread(128, 31), spread(256, 1)[128:]...) // 7.2 bit/byte
	for _, tc := range []struct {
		name string
		seg  []byte
		mode byte
	}{
		{"one value, full segment", bytes.Repeat([]byte{0xAB}, segSize), segConst},
		{"one value, 1-byte last segment", []byte{0}, segConst},
		{"one byte differs", append(bytes.Repeat([]byte{0xAB}, segSize-1), 0xAC), segPacked},
		{"exactly 7.0 bit/byte", spread(128, 32), segPacked},
		{"just above 7.0 bit/byte", above, segRaw},
		{"8 bit/byte", spread(256, 16), segRaw},
		{"100 distinct bytes cannot reach 7 bit", spread(100, 1), segPacked},
	} {
		if mode := classify(tc.seg); mode != tc.mode {
			t.Errorf("%s: mode %d, want %d", tc.name, mode, tc.mode)
		}
	}
}

// TestShuffleStride2Decode: encode never emits stride 2, but the wire
// format admits it and the decoder must honor it (forward compatibility
// for int16 data).
func TestShuffleStride2Decode(t *testing.T) {
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	shuffled := make([]byte, len(orig))
	shuffleBytes(shuffled, orig, 2)
	enc := buildFrame(t, 2, shuffled, []byte{segRaw})
	dec, err := Shuffle{}.Decode(nil, enc, len(orig))
	if err != nil || !bytes.Equal(dec, orig) {
		t.Fatalf("stride-2 decode: %v %v", dec, err)
	}
	// Invalid strides are corruption.
	for _, s := range []byte{0, 3, 5, 16, 255} {
		if _, err := (Shuffle{}).Decode(nil, append([]byte{s | segmentedFlag}, enc[1:]...), len(orig)); err == nil {
			t.Fatalf("stride %d accepted", s)
		}
	}
	// A payload that carries more bytes than srcLen is corruption (the
	// unaligned-tail rules make srcLen=7 format-valid, but this raw segment
	// is 8 bytes).
	if _, err := (Shuffle{}).Decode(nil, enc, 7); err == nil {
		t.Fatal("stride 2 payload longer than srcLen accepted")
	}
	// Unaligned srcLen: the aligned prefix shuffles, the tail rides verbatim.
	odd := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	shuffledOdd := make([]byte, len(odd))
	shuffleBytes(shuffledOdd, odd, 2)
	if shuffledOdd[len(odd)-1] != 9 {
		t.Fatalf("tail byte not carried verbatim: %v", shuffledOdd)
	}
	dec, err = Shuffle{}.Decode(nil, buildFrame(t, 2, shuffledOdd, []byte{segRaw}), len(odd))
	if err != nil || !bytes.Equal(dec, odd) {
		t.Fatalf("stride-2 unaligned decode: %v %v", dec, err)
	}
}

// TestShuffleCompressesFloatGrids: the reason the codec exists — float
// grids must actually shrink.
func TestShuffleCompressesFloatGrids(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"f32", float32Grid(32*32*32, 21)},
		{"f64", float64Grid(16*16*16, 22)},
	} {
		enc, err := Shuffle{}.Encode(nil, tc.data)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) >= len(tc.data) {
			t.Fatalf("%s: shuffle did not compress (%d -> %d)", tc.name, len(tc.data), len(enc))
		}
	}
}
