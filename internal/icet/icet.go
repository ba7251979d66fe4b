// Package icet is the parallel image-compositing library of the stack,
// modeled on IceT: each staging server renders its local data into a
// color+depth framebuffer, and the compositor merges the partial images
// into one by a reduction over the abstract communicator. Like the
// original (whose IceTCommunicator struct lists function pointers for the
// communication primitives), it never names a concrete transport: the
// paper's MoNA-backed IceTCommunicator is here any comm.Communicator.
//
// Depth compositing keeps the nearest fragment per pixel (surface
// rendering) by a total order, so the image is a function of the
// fragments alone. The volume pipeline does not composite here: its
// images are integer sums, added by the communicator's own reduce.
package icet

import (
	"encoding/binary"
	"fmt"
	"math"

	"colza/internal/bufpool"
	"colza/internal/comm"
	"colza/internal/render"
)

// Strategy selects the compositing algorithm; TreeReduce is the only one.
type Strategy int

// TreeReduce composites by a binomial reduction of whole images.
const TreeReduce Strategy = 0

// Mode selects the per-pixel merge rule.
type Mode int

// Compositing modes.
const (
	// Depth keeps the fragment nearest to the camera (z-buffer merge).
	Depth Mode = iota
	// Ordered applies back-to-front alpha blending in descending rank
	// order (rank n-1 is farthest); kept only for benchmark/probes.go.
	Ordered
)

const tagBase = 7000

// Composite merges each rank's partial framebuffer by a reduction whose
// fold merges the incoming frame into the accumulator's encoded planes in
// place (mergeEncoded: a reduce hands op a private copy, never a buffer a
// peer or the caller still reads). Only the root decodes, once, back into
// img, the caller's framebuffer, and returns it (nil elsewhere; img itself
// on one rank). All ranks pass the same strategy, mode and root, and
// images of one size: one of another size fails the composite at root
// with render.ErrImage, leaving img as it was.
func Composite(img *render.Image, c comm.Communicator, strat Strategy, mode Mode, root int) (*render.Image, error) {
	if strat != TreeReduce {
		return nil, fmt.Errorf("icet: unknown compositing strategy %d", strat)
	}
	if c.Size() == 1 {
		return img, nil
	}
	op := func(acc, in []byte) []byte {
		// In a binomial reduce the incoming image comes from a higher
		// relative rank: for ordered mode it is behind the accumulator.
		mergeEncoded(acc, in, mode)
		return acc
	}
	// The contribution is a pooled frame: the reduce only reads it (a leaf
	// sends it as it lies, a rank that receives folds into a copy), so it is
	// recycled as soon as Reduce returns.
	frame := img.AppendEncode(bufpool.Get(img.EncodedSize())[:0])
	out, err := c.Reduce(root, tagBase, frame, op)
	bufpool.Put(frame)
	if err != nil {
		return nil, fmt.Errorf("icet: tree composite: %w", err)
	}
	if c.Rank() != root {
		return nil, nil
	}
	// On more than one rank the root's result is the reduce's pooled copy.
	err = render.DecodeImageInto(img, out)
	bufpool.Put(out)
	if err != nil {
		return nil, fmt.Errorf("icet: tree composite: a contribution is malformed or of another size: %w", err)
	}
	return img, nil
}

// mergeEncoded merges the encoded framebuffer src (render.Image.Encode)
// into the encoded framebuffer dst in place, pixel for pixel. Unless both
// are well-formed frames of the same size, it zeroes dst's header
// instead, which no decoder accepts and no later merge repairs.
//
// Depth keeps the smaller (depthKey, RGBA word) pair. That is a total
// order on the pixel's bits, so the merge commutes and associates.
func mergeEncoded(dst, src []byte, mode Mode) {
	n := encodedPixels(dst)
	if n == 0 || len(src) != len(dst) || [8]byte(src) != [8]byte(dst) {
		clear(dst[:min(len(dst), 8)])
		return
	}
	dc, sc := dst[8:8+4*n], src[8:8+4*n]
	dd, sd := dst[8+4*n:], src[8+4*n:]
	if mode == Ordered {
		for o := 0; o < 4*n; o += 4 {
			blendOver(dc[o:o+4], sc[o:o+4])
			if math.Float32frombits(binary.LittleEndian.Uint32(sd[o:])) < math.Float32frombits(binary.LittleEndian.Uint32(dd[o:])) {
				copy(dd[o:o+4], sd[o:o+4])
			}
		}
		return
	}
	for o := 0; o < 4*n; o += 4 {
		ks, kd := depthKey(binary.LittleEndian.Uint32(sd[o:])), depthKey(binary.LittleEndian.Uint32(dd[o:]))
		if ks < kd || ks == kd && binary.LittleEndian.Uint32(sc[o:]) < binary.LittleEndian.Uint32(dc[o:]) {
			copy(dd[o:o+4], sd[o:o+4])
			copy(dc[o:o+4], sc[o:o+4])
		}
	}
}

// depthKey maps float32 depth bits to a key in numeric order, −0 just
// before +0 and every NaN, by its bits, after +Inf: distinct bits get
// distinct keys.
func depthKey(b uint32) uint64 {
	switch {
	case b&0x7fffffff > 0x7f800000: // NaN
		return 1<<32 | uint64(b)
	case b&0x80000000 != 0:
		return uint64(^b)
	default:
		return uint64(b | 0x80000000)
	}
}

// encodedPixels returns the pixel count of a well-formed encoded
// framebuffer, 0 for anything else.
func encodedPixels(b []byte) int {
	if len(b) < 8 {
		return 0
	}
	w, h := int(binary.LittleEndian.Uint32(b)), int(binary.LittleEndian.Uint32(b[4:]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 || len(b) != 8+8*w*h {
		return 0
	}
	return w * h
}

// blendOver blends the RGBA pixel src behind dst into dst ("over", dst in
// front), each channel clamped to 255; only Ordered, kept for
// benchmark/probes.go, calls it.
func blendOver(dst, src []byte) {
	t := 1 - float64(dst[3])/255
	for k := 0; k < 4; k++ {
		dst[k] = uint8(min(float64(dst[k])+t*float64(src[k]), 255))
	}
}
