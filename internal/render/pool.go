package render

import (
	"encoding/binary"
	"math"
	"sync"
)

// imagePool recycles framebuffers for the compositor's scratch images. All
// compositing in one run uses a single resolution, so a plain sync.Pool
// converges to steady-state reuse after the first round.
//
// Ownership: GetImage hands out an image owned exclusively by the caller
// until PutImage; after PutImage no alias may be kept (the planes will be
// scribbled on by the next user). Never PutImage an image that was returned
// to a caller (e.g. Composite's result at root).
var imagePool sync.Pool

// GetImage returns a cleared w×h framebuffer, reusing pooled plane storage
// when a same-or-larger image was recycled.
func GetImage(w, h int) *Image {
	if v := imagePool.Get(); v != nil {
		im := v.(*Image)
		if cap(im.RGBA) >= 4*w*h && cap(im.Depth) >= w*h {
			im.W, im.H = w, h
			im.RGBA = im.RGBA[:4*w*h]
			im.Depth = im.Depth[:w*h]
			im.Clear()
			return im
		}
		// Wrong size class: drop it and allocate fresh.
	}
	return NewImage(w, h)
}

// PutImage parks im for reuse. im must not be touched afterwards.
func PutImage(im *Image) {
	if im == nil || im.RGBA == nil {
		return
	}
	imagePool.Put(im)
}

// EncodedSize returns the exact length of Encode's output.
func (im *Image) EncodedSize() int {
	return 8 + len(im.RGBA) + 4*len(im.Depth)
}

// AppendEncode appends the serialized framebuffer to buf; with spare
// capacity of EncodedSize it does not allocate.
func (im *Image) AppendEncode(buf []byte) []byte {
	off := len(buf)
	n := im.EncodedSize()
	if cap(buf)-off < n {
		grown := make([]byte, off, off+n)
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:off+n]
	binary.LittleEndian.PutUint32(buf[off:], uint32(im.W))
	binary.LittleEndian.PutUint32(buf[off+4:], uint32(im.H))
	copy(buf[off+8:], im.RGBA)
	doff := off + 8 + len(im.RGBA)
	for i, d := range im.Depth {
		binary.LittleEndian.PutUint32(buf[doff+4*i:], math.Float32bits(d))
	}
	return buf
}

// DecodeImageInto decodes a serialized framebuffer (Encode) into im,
// reusing its plane storage when the capacity fits. It refuses a size
// outside 1..2^14 per axis or a length other than that size's, and leaves
// im untouched then.
func DecodeImageInto(im *Image, data []byte) error {
	if len(data) < 8 {
		return ErrImage
	}
	w := int(binary.LittleEndian.Uint32(data))
	h := int(binary.LittleEndian.Uint32(data[4:]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 || len(data) != 8+8*w*h {
		return ErrImage
	}
	if cap(im.RGBA) >= 4*w*h {
		im.RGBA = im.RGBA[:4*w*h]
	} else {
		im.RGBA = make([]uint8, 4*w*h)
	}
	if cap(im.Depth) >= w*h {
		im.Depth = im.Depth[:w*h]
	} else {
		im.Depth = make([]float32, w*h)
	}
	im.W, im.H = w, h
	copy(im.RGBA, data[8:8+4*w*h])
	off := 8 + 4*w*h
	for i := range im.Depth {
		im.Depth[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off+4*i:]))
	}
	return nil
}
