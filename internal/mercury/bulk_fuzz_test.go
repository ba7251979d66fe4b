package mercury

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeBulk mirrors the vtk legacy-parse fuzz pattern: arbitrary input
// must either decode into a handle that re-encodes to exactly the consumed
// prefix, or error — and malformed length fields must never drive
// allocations proportional to the lie they tell.
func FuzzDecodeBulk(f *testing.F) {
	f.Add([]byte{})
	f.Add(Bulk{Addr: "inproc://a", ID: 7, Size: 1024}.Encode())
	f.Add(Bulk{Addr: "", ID: 0, Size: 0}.Encode())
	// Truncated frame: claims a longer address than present.
	trunc := Bulk{Addr: "abcdefgh", ID: 1, Size: 8}.Encode()
	f.Add(trunc[:len(trunc)-3])
	// Negative size.
	neg := Bulk{Addr: "x", ID: 2, Size: 4}.Encode()
	binary.LittleEndian.PutUint64(neg[8:], ^uint64(0))
	f.Add(neg)
	// Address length claiming almost 4 GiB on a 24-byte frame.
	huge := Bulk{Addr: "abcd", ID: 3, Size: 16}.Encode()
	binary.LittleEndian.PutUint32(huge[16:], 1<<30)
	f.Add(huge)
	// Handles that carry their region, intact and malformed.
	f.Add(eagerSeed().Encode())
	for _, bad := range malformedEagerFrames() {
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, rest, err := DecodeBulk(data, "")
		if err != nil {
			return
		}
		if b.Size < 0 {
			t.Fatalf("decoded negative size %d", b.Size)
		}
		if b.inFrame != (b.eager != nil) || (b.inFrame && len(b.eager) != b.Size) {
			t.Fatalf("eager region of %d bytes on a handle of size %d (inFrame=%v)", len(b.eager), b.Size, b.inFrame)
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		enc := b.Encode()
		if !bytes.Equal(enc, data[:len(data)-len(rest)]) {
			t.Fatalf("re-encode mismatch: %x vs %x", enc, data[:len(data)-len(rest)])
		}
		// A known sender address changes which string the handle holds,
		// never what it says.
		for _, from := range []string{b.Addr, b.Addr + "x"} {
			if k, _, err := DecodeBulk(data, from); err != nil || k.Addr != b.Addr || k.ID != b.ID || k.Size != b.Size {
				t.Fatalf("decode with from %q: %+v, %v; without: %+v", from, k, err, b)
			}
		}
	})
}

// TestDecodeBulkBoundedAllocs: a malformed frame whose length fields claim
// gigabytes must be rejected without allocating for them.
func TestDecodeBulkBoundedAllocs(t *testing.T) {
	frame := Bulk{Addr: "abcd", ID: 3, Size: 16}.Encode()
	binary.LittleEndian.PutUint32(frame[16:], 1<<30) // 1 GiB address claim
	frames := append(malformedEagerFrames(), frame)
	allocs := testing.AllocsPerRun(100, func() {
		for _, frame := range frames {
			if _, _, err := DecodeBulk(frame, ""); !errors.Is(err, ErrBadBulk) {
				t.Fatalf("malformed frame %x: err = %v, want ErrBadBulk", frame, err)
			}
		}
	})
	// At most the address string of each frame, whatever the lengths claim.
	if allocs > float64(len(frames)) {
		t.Fatalf("%d malformed decodes allocate %.1f times", len(frames), allocs)
	}
}

func eagerSeed() Bulk {
	return Bulk{Addr: "tcp://h:1", ID: 9, Size: 5, eager: []byte("hello")}
}

// malformedEagerFrames are encodings of eagerSeed broken one way each; all
// must decode to ErrBadBulk.
func malformedEagerFrames() [][]byte {
	good := eagerSeed().Encode()
	lenAt := 20 + len(eagerSeed().Addr) // the embedded length word
	mutate := func(fn func(b []byte) []byte) []byte { return fn(append([]byte(nil), good...)) }
	return [][]byte{
		// Embedded length claims almost 4 GiB over five bytes.
		mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[lenAt:], 0xFFFFFFF0); return b }),
		// Embedded length shorter than Size: the tail would be someone else's.
		mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[lenAt:], 4); return b }),
		// Size lies instead (larger, then a 1 TiB claim).
		mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:], 6); return b }),
		mutate(func(b []byte) []byte { binary.LittleEndian.PutUint64(b[8:], 1<<40); return b }),
		// Region truncated by the frame's end.
		mutate(func(b []byte) []byte { return b[:len(b)-2] }),
		// Flag set, frame ends before the length word is complete.
		mutate(func(b []byte) []byte { return b[:lenAt+3] }),
	}
}
