package render

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

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

// FuzzDecodeImage: a serialized framebuffer comes from a compositing
// peer. Whatever it holds, DecodeImage never panics; it refuses with
// ErrImage, or returns an image that re-encodes to its input.
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
		im, err := DecodeImage(data)
		if err != nil {
			if !errors.Is(err, ErrImage) {
				t.Fatalf("refused with %v, not ErrImage", err)
			}
			return
		}
		if !bytes.Equal(im.Encode(), data) {
			t.Fatal("accepted frame does not re-encode to its input")
		}
	})
}

// TestCoveredPixelsMeansDrawn: a pixel counts as covered when something was
// drawn on it, whichever plane says so — a rasterized surface leaves a
// depth (finite, or NaN or −Inf from a degenerate projection, drawn all the
// same), a resolved volume image only an alpha.
func TestCoveredPixelsMeansDrawn(t *testing.T) {
	im := NewImage(4, 2)
	if n := im.CoveredPixels(); n != 0 {
		t.Fatalf("a cleared image has %d covered pixels", n)
	}
	im.Depth[0] = 0.5 // drawn by the rasterizer: depth and alpha
	im.RGBA[3] = 255
	im.Depth[1] = float32(math.NaN())
	im.RGBA[7] = 255
	im.RGBA[4*5+3] = 3 // drawn by a volume resolve: alpha only
	im.RGBA[4*6] = 200 // colour without alpha: not drawn
	if n := im.CoveredPixels(); n != 3 {
		t.Fatalf("%d covered pixels, want 3", n)
	}
}
