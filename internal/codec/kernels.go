package codec

import "encoding/binary"

// Word-wise inner-loop kernels for the shuffle and XOR-delta transforms.
// The transforms move every byte of every staged block, so the byte-at-a-
// time reference loops were the codec hot spot; these operate on 8-byte
// words (§10 pattern: aligned prefix word-wise, sub-word tail byte-wise)
// and are proven bit-identical to the references by TestKernelsMatchReference.

// xorInto XORs src into dst elementwise (the delta residual).
func xorInto(dst, src []byte) { xorTo(dst, dst, src) }

// xorTo writes a XOR b into dst, all of dst's length. Word-wise: one
// load/xor/store per 8 bytes instead of eight.
func xorTo(dst, a, b []byte) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(a[i:])^binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < n; i++ {
		dst[i] = a[i] ^ b[i]
	}
}

// histogram counts seg's byte values into h. The count is split over four
// tables filled in turn, so a run of one value does not serialise on a
// single counter's store-to-load dependency; all four live on the stack.
func histogram(h *[256]uint32, seg []byte) {
	var h1, h2, h3 [256]uint32
	*h = [256]uint32{}
	i := 0
	for ; i+4 <= len(seg); i += 4 {
		h[seg[i]]++
		h1[seg[i+1]]++
		h2[seg[i+2]]++
		h3[seg[i+3]]++
	}
	for ; i < len(seg); i++ {
		h[seg[i]]++
	}
	for v := range h {
		h[v] += h1[v] + h2[v] + h3[v]
	}
}

// shuffleBytes transposes the aligned prefix of src so byte j of every
// stride-sized element is contiguous — dst[j*rows+i] = src[i*stride+j] —
// and carries any sub-stride tail verbatim at the end. Strides 4 and 8
// (the ones Encode emits) run word-wise; other strides take the
// reference loop.
func shuffleBytes(dst, src []byte, stride int) {
	rows := len(src) / stride
	switch stride {
	case 8:
		shuffle8(dst, src, rows)
	case 4:
		shuffle4(dst, src, rows)
	default:
		shuffleRef(dst, src, stride)
		return
	}
	copy(dst[rows*stride:], src[rows*stride:])
}

// unshuffleBytes inverts shuffleBytes.
func unshuffleBytes(dst, src []byte, stride int) {
	rows := len(src) / stride
	switch stride {
	case 8:
		unshuffle8(dst, src, rows)
	case 4:
		unshuffle4(dst, src, rows)
	default:
		unshuffleRef(dst, src, stride)
		return
	}
	copy(dst[rows*stride:], src[rows*stride:])
}

// shuffleRef / unshuffleRef are the byte-wise reference transposes: the
// oracle the word kernels are tested against, and the fallback for
// strides without a dedicated kernel.
func shuffleRef(dst, src []byte, stride int) {
	rows := len(src) / stride
	for j := 0; j < stride; j++ {
		o := j * rows
		for i := 0; i < rows; i++ {
			dst[o+i] = src[i*stride+j]
		}
	}
	copy(dst[rows*stride:], src[rows*stride:])
}

func unshuffleRef(dst, src []byte, stride int) {
	rows := len(src) / stride
	for j := 0; j < stride; j++ {
		o := j * rows
		for i := 0; i < rows; i++ {
			dst[i*stride+j] = src[o+i]
		}
	}
	copy(dst[rows*stride:], src[rows*stride:])
}

// xorIntoRef is the byte-wise XOR reference (test oracle).
func xorIntoRef(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// transpose8x8 transposes an 8×8 byte matrix held in eight little-endian
// words (w[r] byte c = element (r,c)) in place, using three rounds of
// masked block swaps — 24 word ops instead of 64 byte moves.
func transpose8x8(w *[8]uint64) {
	const (
		m1 = 0xFF00FF00FF00FF00
		m2 = 0xFFFF0000FFFF0000
		m4 = 0xFFFFFFFF00000000
	)
	for r := 0; r < 8; r += 2 {
		t := (w[r] ^ (w[r+1] << 8)) & m1
		w[r] ^= t
		w[r+1] ^= t >> 8
	}
	for _, r := range [4]int{0, 1, 4, 5} {
		t := (w[r] ^ (w[r+2] << 16)) & m2
		w[r] ^= t
		w[r+2] ^= t >> 16
	}
	for r := 0; r < 4; r++ {
		t := (w[r] ^ (w[r+4] << 32)) & m4
		w[r] ^= t
		w[r+4] ^= t >> 32
	}
}

// shuffle8 transposes rows float64-sized elements: tiles of 8 elements
// (one 8×8 byte matrix, loaded as 8 words) transpose in registers, each
// output word landing as 8 contiguous bytes of one plane.
func shuffle8(dst, src []byte, rows int) {
	nt := rows &^ 7
	var w [8]uint64
	for base := 0; base < nt; base += 8 {
		off := base * 8
		for i := 0; i < 8; i++ {
			w[i] = binary.LittleEndian.Uint64(src[off+i*8:])
		}
		transpose8x8(&w)
		for j := 0; j < 8; j++ {
			binary.LittleEndian.PutUint64(dst[j*rows+base:], w[j])
		}
	}
	for i := nt; i < rows; i++ {
		for j := 0; j < 8; j++ {
			dst[j*rows+i] = src[i*8+j]
		}
	}
}

func unshuffle8(dst, src []byte, rows int) {
	nt := rows &^ 7
	var w [8]uint64
	for base := 0; base < nt; base += 8 {
		for j := 0; j < 8; j++ {
			w[j] = binary.LittleEndian.Uint64(src[j*rows+base:])
		}
		transpose8x8(&w)
		off := base * 8
		for i := 0; i < 8; i++ {
			binary.LittleEndian.PutUint64(dst[off+i*8:], w[i])
		}
	}
	for i := nt; i < rows; i++ {
		for j := 0; j < 8; j++ {
			dst[i*8+j] = src[j*rows+i]
		}
	}
}

// shuffle4 transposes rows float32-sized elements: per plane, eight
// elements' bytes gather into one word store (8 loads + 1 store instead
// of 8 load/store pairs, and the writes stream sequentially).
func shuffle4(dst, src []byte, rows int) {
	nt := rows &^ 7
	for j := 0; j < 4; j++ {
		o := j * rows
		for i := 0; i < nt; i += 8 {
			s := src[i*4+j:]
			_ = s[28] // one bounds check for the eight gathered loads
			w := uint64(s[0]) | uint64(s[4])<<8 | uint64(s[8])<<16 | uint64(s[12])<<24 |
				uint64(s[16])<<32 | uint64(s[20])<<40 | uint64(s[24])<<48 | uint64(s[28])<<56
			binary.LittleEndian.PutUint64(dst[o+i:], w)
		}
		for i := nt; i < rows; i++ {
			dst[o+i] = src[i*4+j]
		}
	}
}

func unshuffle4(dst, src []byte, rows int) {
	nt := rows &^ 7
	for j := 0; j < 4; j++ {
		o := j * rows
		for i := 0; i < nt; i += 8 {
			w := binary.LittleEndian.Uint64(src[o+i:])
			d := dst[i*4+j:]
			_ = d[28] // one bounds check for the eight scattered stores
			d[0] = byte(w)
			d[4] = byte(w >> 8)
			d[8] = byte(w >> 16)
			d[12] = byte(w >> 24)
			d[16] = byte(w >> 32)
			d[20] = byte(w >> 40)
			d[24] = byte(w >> 48)
			d[28] = byte(w >> 56)
		}
		for i := nt; i < rows; i++ {
			dst[i*4+j] = src[o+i]
		}
	}
}
