package codec

import (
	"bytes"
	"math"

	"colza/internal/bufpool"
)

// Shuffle is the grid codec: transpose the block so that byte k of every
// float lands contiguously ("byte shuffle", the classic trick from
// Blosc/HDF5), cut the result into 4 KiB segments and code each the
// cheapest way that fits it. Float grids have near-constant sign/exponent
// bytes, which become one-valued segments (one byte each), and mantissa
// bytes no coder shrinks, which ride verbatim; only what is left goes
// through DEFLATE, as one stream. The decision is per segment, not per
// plane, because real staged blocks are serialized messages — `vtk` puts a
// 13-byte header before each array — so the byte planes rotate mid-block.
//
// Wire layout (DESIGN.md §10.1):
//
//	[format: stride (1, 2, 4 or 8) | segmentedFlag]
//	[one mode byte per segment: ceil(srcLen/segSize) of them — the count
//	 comes from the frame's srcLen, never from the payload]
//	[per segment in order: raw → its bytes, constant → one byte, packed → nothing]
//	[one DEFLATE stream: the packed segments concatenated]
//
// Blocks whose length is not a stride multiple shuffle the aligned prefix
// and carry the tail bytes verbatim at the end of the shuffled form.
// Encode picks stride 4 or 8 (float32 or float64 data) from a sample,
// without being told the element type; the decoder also honours 1 and 2.
type Shuffle struct{}

const (
	// segmentedFlag marks the segment layout in the format byte; a frame
	// without it is not one of ours.
	segmentedFlag = 0x40

	// segSize and rawBits come from the §10.3 census: 8 KiB segments cost
	// the Gray-Scott ring 0.008 of ratio and 16 KiB 0.04 (the planes rotate
	// faster than that); packing up to 7.5 bit/byte of order-0 entropy buys
	// 0.01 (0.02 on DWI) for 1.5x the encode and decode time.
	segSize = 4096
	rawBits = 7.0

	// strideSample bounds what chooseStride prices.
	strideSample = 16 << 10
)

// Segment modes, one byte each on the wire.
const (
	segConst byte = iota
	segRaw
	segPacked
)

// nlog2n[c] = c·log2(c): the order-0 cost in bits of n bytes with counts c
// is nlog2n[n] − Σ nlog2n[c].
var nlog2n = func() (t [segSize + 1]float32) {
	for c := 2; c < len(t); c++ {
		t[c] = float32(float64(c) * math.Log2(float64(c)))
	}
	return
}()

// MaxEncodedSize: format byte, mode bytes, and every segment either
// verbatim or inside a DEFLATE stream that at worst stores it.
func (Shuffle) MaxEncodedSize(n int) int { return 1 + n/segSize + 1 + maxDeflatedSize(n) }

// orderZeroBits is the order-0 cost in bits of n bytes with histogram h.
func orderZeroBits(h *[256]uint32, n int) float32 {
	bits := nlog2n[n]
	for _, c := range h {
		bits -= nlog2n[c]
	}
	return bits
}

// classify picks the mode of one non-empty segment of at most segSize bytes.
func classify(seg []byte) byte {
	if bytes.Equal(seg[1:], seg[:len(seg)-1]) {
		return segConst
	}
	var h [256]uint32
	histogram(&h, seg)
	if orderZeroBits(&h, len(seg)) > rawBits*float32(len(seg)) {
		return segRaw
	}
	return segPacked
}

// chooseStride prices a sample from the middle of src under strides 4 and
// 8 from one histogram per byte phase, not by encoding anything twice. A
// stride-8 plane is half as long, which flatters its entropy by ~0.5 %, so
// 8 has to win by 3 % (float64 data does by 6 % and up); blocks shorter
// than an element take what fits.
func chooseStride(src []byte) int {
	if len(src) < 4 {
		return 1
	}
	if len(src) < 8 {
		return 4
	}
	if len(src) > strideSample {
		off := ((len(src) - strideSample) / 2) &^ 7 // keep the element phase
		src = src[off : off+strideSample]
	}
	var h [8][256]uint32
	rows := len(src) / 8
	for i, b := range src[:rows*8] {
		h[i&7][b]++
	}
	var cost4, cost8 float32
	for j := 0; j < 4; j++ {
		cost8 += orderZeroBits(&h[j], rows) + orderZeroBits(&h[j+4], rows)
		for v := range h[j] {
			h[j][v] += h[j+4][v]
		}
		cost4 += orderZeroBits(&h[j], 2*rows)
	}
	if cost8 < cost4*31/32 {
		return 8
	}
	return 4
}

// segment is the i-th segment of a shuffled block.
func segment(shuf []byte, i int) []byte {
	return shuf[i*segSize : min((i+1)*segSize, len(shuf))]
}

func (Shuffle) Encode(dst, src []byte) ([]byte, error) {
	nseg := (len(src) + segSize - 1) / segSize
	stride := chooseStride(src)
	shuf := bufpool.Get(len(src))
	shuffleBytes(shuf, src, stride)
	dst = append(dst, byte(stride)|segmentedFlag)
	m := len(dst)
	dst = grow(dst, nseg)
	for i := 0; i < nseg; i++ {
		seg := segment(shuf, i)
		mode := segRaw // a block shorter than one element is not worth packing
		if stride > 1 {
			mode = classify(seg)
		}
		dst[m+i] = mode
		switch mode {
		case segRaw:
			dst = append(dst, seg...)
		case segConst:
			dst = append(dst, seg[0])
		}
	}
	modes := dst[m : m+nseg] // the stream may move dst
	z := stdFlate.deflate(dst)
	for i, mode := range modes {
		if mode == segPacked {
			_, _ = z.zw.Write(segment(shuf, i)) // a failed write sticks: Close reports it
		}
	}
	bufpool.Put(shuf)
	return stdFlate.endDeflate(z)
}

func (Shuffle) Decode(dst, src []byte, srcLen int) ([]byte, error) {
	nseg := (srcLen + segSize - 1) / segSize
	if len(src) < 1+nseg || src[0]&segmentedFlag == 0 {
		return nil, ErrCorrupt
	}
	stride := int(src[0] &^ segmentedFlag)
	if stride != 1 && stride != 2 && stride != 4 && stride != 8 {
		return nil, ErrCorrupt
	}
	shuf := bufpool.Get(srcLen)
	defer bufpool.Put(shuf)
	if err := fillSegments(shuf, src[1:1+nseg], src[1+nseg:]); err != nil {
		return nil, err
	}
	dst = grow(dst, srcLen)
	unshuffleBytes(dst[len(dst)-srcLen:], shuf, stride)
	return dst, nil
}

// fillSegments rebuilds the shuffled block in shuf, whose length fixes the
// segment bounds: raw and constant segments from the front of payload, the
// packed ones by inflating what is left straight into their places.
func fillSegments(shuf, modes, payload []byte) error {
	for i, mode := range modes {
		seg := segment(shuf, i)
		switch {
		case mode == segRaw && len(payload) >= len(seg):
			copy(seg, payload)
			payload = payload[len(seg):]
		case mode == segConst && len(payload) >= 1:
			seg[0] = payload[0]
			for k := 1; k < len(seg); k *= 2 {
				copy(seg[k:], seg[:k])
			}
			payload = payload[1:]
		case mode != segPacked:
			return ErrCorrupt
		}
	}
	z := stdFlate.inflate(payload)
	ok := true
	for i, mode := range modes {
		if mode == segPacked && ok {
			ok = z.fill(segment(shuf, i))
		}
	}
	return stdFlate.endInflate(z, ok)
}
