package render

import (
	"bytes"
	"math"
	"testing"
)

func TestGetImageClearedAndSized(t *testing.T) {
	im := GetImage(8, 4)
	if im.W != 8 || im.H != 4 || len(im.RGBA) != 128 || len(im.Depth) != 32 {
		t.Fatalf("bad shape: %dx%d rgba=%d depth=%d", im.W, im.H, len(im.RGBA), len(im.Depth))
	}
	im.RGBA[0] = 77
	im.Depth[0] = 0.5
	PutImage(im)

	// A recycled image must come back cleared, whatever was left in it.
	im2 := GetImage(8, 4)
	if im2.RGBA[0] != 0 || !math.IsInf(float64(im2.Depth[0]), 1) {
		t.Fatal("recycled image not cleared")
	}
	PutImage(im2)

	// Smaller request reuses larger planes.
	big := GetImage(16, 16)
	PutImage(big)
	small := GetImage(4, 4)
	if small.W != 4 || len(small.RGBA) != 64 || len(small.Depth) != 16 {
		t.Fatalf("small image shape: %+v", small)
	}
	PutImage(small)
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	im := NewImage(5, 3)
	for i := range im.RGBA {
		im.RGBA[i] = uint8(i * 3)
	}
	for i := range im.Depth {
		im.Depth[i] = float32(i) * 0.25
	}
	if got, want := im.AppendEncode(nil), im.Encode(); !bytes.Equal(got, want) {
		t.Fatal("AppendEncode diverges from Encode")
	}
	if im.EncodedSize() != len(im.Encode()) {
		t.Fatalf("EncodedSize = %d, len(Encode) = %d", im.EncodedSize(), len(im.Encode()))
	}
	// Appending after a prefix keeps the prefix.
	out := im.AppendEncode([]byte("hdr"))
	if string(out[:3]) != "hdr" || !bytes.Equal(out[3:], im.Encode()) {
		t.Fatal("prefix lost")
	}
	// Enough spare capacity: no allocation.
	scratch := make([]byte, 0, im.EncodedSize())
	allocs := testing.AllocsPerRun(20, func() { im.AppendEncode(scratch) })
	if allocs != 0 {
		t.Fatalf("AppendEncode into sized buffer allocates %.1f times", allocs)
	}
}

func TestDecodeImageInto(t *testing.T) {
	src := NewImage(6, 2)
	for i := range src.RGBA {
		src.RGBA[i] = uint8(200 - i)
	}
	for i := range src.Depth {
		src.Depth[i] = -float32(i)
	}
	enc := src.Encode()

	// Into an image with big enough planes: storage reused, no alloc.
	dst := NewImage(8, 8)
	rgbaCap := cap(dst.RGBA)
	if err := DecodeImageInto(dst, enc); err != nil {
		t.Fatal(err)
	}
	if dst.W != 6 || dst.H != 2 || cap(dst.RGBA) != rgbaCap {
		t.Fatalf("storage not reused: %dx%d cap=%d", dst.W, dst.H, cap(dst.RGBA))
	}
	if !bytes.Equal(dst.RGBA, src.RGBA) {
		t.Fatal("rgba mismatch")
	}
	for i := range dst.Depth {
		if dst.Depth[i] != src.Depth[i] {
			t.Fatalf("depth[%d] = %v", i, dst.Depth[i])
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := DecodeImageInto(dst, enc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeImageInto with capacity allocates %.1f times", allocs)
	}

	// Into a too-small image: planes grow, data still right.
	tiny := NewImage(1, 1)
	if err := DecodeImageInto(tiny, enc); err != nil {
		t.Fatal(err)
	}
	if tiny.W != 6 || tiny.H != 2 || !bytes.Equal(tiny.RGBA, src.RGBA) {
		t.Fatal("grow path corrupted image")
	}

	// Malformed input leaves the destination untouched.
	before := append([]byte(nil), tiny.RGBA...)
	if err := DecodeImageInto(tiny, enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if !bytes.Equal(tiny.RGBA, before) {
		t.Fatal("failed decode mutated destination")
	}
}

// FuzzDecodeImage: DecodeImage and DecodeImageInto accept and refuse the
// same inputs — DecodeImageInto whether its destination's planes are
// larger, smaller or absent — a refused input leaves the destination as it
// was, and an accepted frame re-encodes to its input.
func FuzzDecodeImage(f *testing.F) {
	im := NewImage(3, 2)
	im.RGBA[5], im.Depth[4] = 9, float32(math.NaN())
	enc := im.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-1])
	f.Add(NewImage(1, 1).Encode())
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0})       // zero width
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 0, 0}) // 65536², ten bytes
	f.Add([]byte{1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := DecodeImage(data)
		for _, dst := range []*Image{NewImage(64, 64), NewImage(1, 1), {}} {
			w, h, before := dst.W, dst.H, dst.Encode()
			errInto := DecodeImageInto(dst, data)
			if (err == nil) != (errInto == nil) {
				t.Fatalf("DecodeImage: %v, DecodeImageInto a %dx%d image: %v", err, w, h, errInto)
			}
			if errInto != nil && !bytes.Equal(dst.Encode(), before) {
				t.Fatal("a refused frame changed the destination")
			}
			if errInto == nil && !bytes.Equal(dst.Encode(), data) {
				t.Fatal("DecodeImageInto: accepted frame does not re-encode to its input")
			}
		}
		if err == nil && !bytes.Equal(fresh.Encode(), data) {
			t.Fatal("DecodeImage: accepted frame does not re-encode to its input")
		}
	})
}
