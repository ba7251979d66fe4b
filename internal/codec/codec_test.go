package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// conformanceCase is one corpus entry every registered codec must survive.
type conformanceCase struct {
	name string
	data []byte
}

// float32Grid synthesizes a smooth float32 field, the shape of real
// simulation block data (near-constant exponents, coherent mantissas).
func float32Grid(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n*4)
	for i := 0; i < n; i++ {
		v := float32(math.Sin(float64(i)/37.0) + 0.01*rng.Float64())
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// float64Grid is the float64 analog.
func float64Grid(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n*8)
	for i := 0; i < n; i++ {
		v := math.Cos(float64(i)/53.0) + 0.001*rng.Float64()
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func randomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

func conformanceCorpus() []conformanceCase {
	// The 64 MiB case is the largest block the stage wire admits
	// (maxStageUncompressed); built from a repeating float pattern so the
	// flate pass stays fast while still exercising full-size paths.
	big := make([]byte, 64<<20)
	pattern := float32Grid(1024, 7)
	for off := 0; off < len(big); off += len(pattern) {
		copy(big[off:], pattern)
	}
	return []conformanceCase{
		{"empty", nil},
		{"one-byte", []byte{0x5A}},
		{"three-bytes", []byte{1, 2, 3}},
		{"uniform", bytes.Repeat([]byte{0x42}, 4096)},
		{"float32-grid", float32Grid(32*32*32, 1)},
		{"float64-grid", float64Grid(16*16*16, 2)},
		{"float32-unaligned", float32Grid(1000, 3)[:3999]}, // not %4
		{"incompressible", randomBytes(1<<16, 4)},
		{"incompressible-odd", randomBytes(65537, 5)},
		{"max-64mib", big},
	}
}

// TestCodecConformance runs the shared harness over every registered codec:
// bit-identical round trips, MaxEncodedSize honored, truncated input errors
// (never panics), corrupted input never panics and never lies about length.
func TestCodecConformance(t *testing.T) {
	corpus := conformanceCorpus()
	for _, c := range All() {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			for _, tc := range corpus {
				enc, err := c.Encode(nil, tc.data)
				if err != nil {
					t.Fatalf("%s: encode: %v", tc.name, err)
				}
				if len(enc) > c.MaxEncodedSize(len(tc.data)) {
					t.Fatalf("%s: encoded %d bytes > MaxEncodedSize %d", tc.name, len(enc), c.MaxEncodedSize(len(tc.data)))
				}
				dec, err := c.Decode(nil, enc, len(tc.data))
				if err != nil {
					t.Fatalf("%s: decode: %v", tc.name, err)
				}
				if !bytes.Equal(dec, tc.data) {
					t.Fatalf("%s: round trip not bit-identical (%d vs %d bytes)", tc.name, len(dec), len(tc.data))
				}
				// Decode must append to the caller's prefix, not clobber it.
				if len(tc.data) > 0 && len(tc.data) < 1<<16 {
					withPrefix, err := c.Decode([]byte("prefix"), enc, len(tc.data))
					if err != nil || !bytes.HasPrefix(withPrefix, []byte("prefix")) || !bytes.Equal(withPrefix[6:], tc.data) {
						t.Fatalf("%s: decode does not append to dst (err=%v)", tc.name, err)
					}
				}
				if len(tc.data) >= 1<<16 {
					continue // truncation/corruption sweeps only on the small cases
				}
				// Every truncation must error, never panic and never succeed
				// while producing the wrong number of bytes. Corruption has
				// no checksum to catch it, so wrong bytes can decode
				// "successfully" — but it must never panic, and a nil error
				// must still mean exactly srcLen output bytes.
				for _, n := range sweepOffsets(len(enc), segmentBoundaries(c, enc, len(tc.data))) {
					out, err := c.Decode(nil, enc[:n], len(tc.data))
					if err == nil && len(out) != len(tc.data) {
						t.Fatalf("%s: truncated decode [:%d] returned %d bytes without error", tc.name, n, len(out))
					}
					bad := append([]byte(nil), enc...)
					bad[n] ^= 0xFF
					out, err = c.Decode(nil, bad, len(tc.data))
					if err == nil && len(out) != len(tc.data) {
						t.Fatalf("%s: corrupted decode at %d returned %d bytes without error", tc.name, n, len(out))
					}
				}
			}
		})
	}
}

// sweepOffsets lists the offsets of an n-byte encoding the truncation and
// corruption sweeps visit: all of them up to 4 KiB; for longer encodings
// the first 256, the last 64, two either side of every layout boundary,
// and a prime stride in between.
func sweepOffsets(n int, boundaries []int) []int {
	var offs []int
	for i := 0; i < n; i++ {
		near := false
		for _, b := range boundaries {
			near = near || (i >= b-2 && i <= b+2)
		}
		if n <= 4096 || i < 256 || i >= n-64 || i%251 == 0 || near {
			offs = append(offs, i)
		}
	}
	return offs
}

// segmentBoundaries walks a Shuffle/Delta frame's layout (nil for the
// other codecs): the end of the mode table, the end of every inline
// segment payload, and so the start of the DEFLATE stream.
func segmentBoundaries(c Codec, enc []byte, srcLen int) []int {
	if c.ID() != ShuffleID && c.ID() != DeltaID {
		return nil
	}
	nseg := (srcLen + segSize - 1) / segSize
	off := 1 + nseg
	bounds := []int{off}
	for i, mode := range enc[1 : 1+nseg] {
		switch mode {
		case segRaw:
			off += min(segSize, srcLen-i*segSize)
		case segConst:
			off++
		default:
			continue
		}
		bounds = append(bounds, off)
	}
	return bounds
}

// TestCodecWrongLength: a decode asked for a different original length than
// the stream encodes must error, not return silently wrong bytes.
func TestCodecWrongLength(t *testing.T) {
	data := float32Grid(1024, 9)
	for _, c := range All() {
		enc, err := c.Encode(nil, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, wrong := range []int{0, 1, len(data) - 4, len(data) - 1} {
			if out, err := c.Decode(nil, enc, wrong); err == nil && len(out) != wrong {
				t.Fatalf("%s: decode with wrong srcLen %d returned %d bytes without error", c.Name(), wrong, len(out))
			}
		}
	}
}

// TestRegistry covers the lookup surface: IDs are wire-stable, names
// resolve, unknown names report the known set.
func TestRegistry(t *testing.T) {
	want := map[uint8]string{RawID: "raw", FlateID: "flate", ShuffleID: "shuffle", DeltaID: "delta"}
	for id, name := range want {
		c, ok := ByID(id)
		if !ok || c.Name() != name {
			t.Fatalf("ByID(%d) = %v, %v; want %s", id, c, ok, name)
		}
		byName, ok := ByName(name)
		if !ok || byName.ID() != id {
			t.Fatalf("ByName(%q) mismatch", name)
		}
		viaLookup, err := Lookup(name)
		if err != nil || viaLookup.ID() != id {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
	}
	if _, err := Lookup("zstd"); err == nil {
		t.Fatal("unknown codec name must error")
	}
	ids := IDs()
	if len(ids) < 4 {
		t.Fatalf("IDs() = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs() not ascending: %v", ids)
		}
	}
	names := Names()
	all := All()
	if len(names) != len(ids) || len(all) != len(ids) {
		t.Fatalf("Names/All length mismatch: %v vs %v", names, ids)
	}
	for i, c := range all {
		if c.ID() != ids[i] || c.Name() != names[i] {
			t.Fatalf("All()[%d] out of order", i)
		}
	}
}

// TestRawLengthMismatch: raw's only failure mode.
func TestRawLengthMismatch(t *testing.T) {
	if _, err := (Raw{}).Decode(nil, []byte{1, 2, 3}, 4); err == nil {
		t.Fatal("raw decode with wrong length accepted")
	}
}

// TestFlateTrailingGarbage: extra bytes after the DEFLATE stream are
// corruption, not silently ignored.
func TestFlateTrailingGarbage(t *testing.T) {
	f := &Flate{}
	data := float32Grid(256, 11)
	enc, err := f.Encode(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Decode(nil, append(enc, 0xAB), len(data)); err == nil {
		t.Fatal("trailing garbage after DEFLATE stream accepted")
	}
}

// FuzzCodecDecode: arbitrary input to any registered codec's decoder must
// never panic, never allocate past the claimed length, and a nil error must
// mean exactly srcLen output bytes. Seeded from the conformance corpus.
func FuzzCodecDecode(f *testing.F) {
	for _, c := range All() {
		for _, tc := range conformanceCorpus() {
			if len(tc.data) >= 1<<16 {
				continue
			}
			enc, err := c.Encode(nil, tc.data)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(c.ID(), enc, len(tc.data))
		}
	}
	f.Add(uint8(200), []byte{1, 2, 3}, 3) // unregistered ID
	// Segment-table edges: block lengths either side of a segment bound, a
	// mode table shorter than srcLen implies, an unknown mode, a constant
	// segment without its byte, inline segments with no stream behind them.
	for _, n := range []int{segSize - 1, segSize, segSize + 1, 2*segSize + 1} {
		enc, err := Shuffle{}.Encode(nil, float32Grid(n/4+1, 6)[:n])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ShuffleID, enc, n)
		f.Add(DeltaID, enc, n+segSize)
	}
	f.Add(ShuffleID, []byte{4 | segmentedFlag, 3, 0}, 16)
	f.Add(ShuffleID, []byte{4 | segmentedFlag, segConst}, 16)
	f.Add(ShuffleID, []byte{4 | segmentedFlag, segConst, 0}, 16)
	f.Fuzz(func(t *testing.T, id uint8, data []byte, srcLen int) {
		c, ok := ByID(id)
		if !ok {
			return
		}
		if srcLen < 0 || srcLen > 1<<20 {
			return
		}
		out, err := c.Decode(nil, data, srcLen)
		if err == nil && len(out) != srcLen {
			t.Fatalf("%s: decode returned %d bytes for srcLen %d without error", c.Name(), len(out), srcLen)
		}
	})
}
