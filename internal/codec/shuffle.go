package codec

import "colza/internal/bufpool"

// Shuffle is the grid codec: transpose the block so that byte k of every
// float lands contiguously ("byte shuffle", the classic trick from
// Blosc/HDF5), then code the result. Float32/float64 grids have
// near-constant sign/exponent bytes across a block, so after the shuffle
// those bytes form long runs that PackBits RLE collapses at memory speed.
// When the planes do not form runs — unaligned sections in a serialized
// block, or mantissa bytes that vary smoothly without repeating — RLE
// breaks even at best, so Encode falls back to DEFLATE over the shuffled
// bytes (the Blosc shuffle+LZ pairing), trading encode CPU for the ratio a
// caller who named this codec asked for.
//
// Wire layout: one format byte, then the payload. The low bits of the
// format byte carry the shuffle stride (1, 2, 4, or 8); the 0x80 bit
// selects the payload coder (clear = RLE, set = DEFLATE). Blocks whose
// length is not a stride multiple shuffle the aligned prefix and carry the
// remaining tail bytes verbatim at the end of the shuffled form — real
// staged blocks are serialized messages whose headers misalign the float
// payload, and stride-1 fallback would forfeit the plane structure.
// Encode trials strides 4 and 8, covering float32 and float64 data without
// being told the element type.
type Shuffle struct{}

// shuffleFlateFlag marks a DEFLATE-coded payload in the format byte.
const shuffleFlateFlag = 0x80

// stdFlate is the shared Flate instance: the registry entry and the
// Shuffle/Delta entropy backend draw from the same writer/reader pools.
var stdFlate = &Flate{}

func (Shuffle) ID() uint8    { return ShuffleID }
func (Shuffle) Name() string { return "shuffle" }

// MaxEncodedSize: format byte + worst-case RLE expansion (1 control byte
// per 128 literals) + slack. The DEFLATE fallback only ships when smaller
// than the RLE trial, so the RLE bound covers both payload coders.
func (Shuffle) MaxEncodedSize(n int) int { return 1 + n + n/128 + 8 }

func (s Shuffle) Encode(dst, src []byte) ([]byte, error) {
	n := len(src)
	if n == 0 {
		return append(dst, 1), nil
	}
	if n < 8 {
		return appendShuffleRLE(dst, src, 1), nil
	}
	bound := s.MaxEncodedSize(n)
	// The stride-4 shuffle is shared by the RLE trial and the DEFLATE
	// fallback, so materialize it once.
	shuf4 := bufpool.Get(n)[:n]
	shuffleBytes(shuf4, src, 4)
	a := rleAppend(append(bufpool.Get(bound)[:0], 4), shuf4)
	b := appendShuffleRLE(bufpool.Get(bound)[:0], src, 8)
	best := a
	if len(b) < len(a) {
		best = b
	}
	// RLE pays for itself only when the planes form long runs. If it did
	// not at least halve the block, the planes are varying smoothly rather
	// than repeating — spend the entropy coder on the shuffled bytes and
	// keep whichever came out smaller. (Below half, RLE is already in the
	// regime where DEFLATE's extra CPU buys little.)
	var c []byte
	if len(best) >= n/2 {
		var err error
		c, err = stdFlate.Encode(append(bufpool.Get(bound)[:0], 4|shuffleFlateFlag), shuf4)
		if err != nil {
			bufpool.Put(a)
			bufpool.Put(b)
			bufpool.Put(shuf4)
			return nil, err
		}
		if len(c) < len(best) {
			best = c
		}
	}
	dst = append(dst, best...)
	bufpool.Put(a)
	bufpool.Put(b)
	if c != nil {
		bufpool.Put(c)
	}
	bufpool.Put(shuf4)
	return dst, nil
}

func (Shuffle) Decode(dst, src []byte, srcLen int) ([]byte, error) {
	if len(src) < 1 {
		return nil, ErrCorrupt
	}
	flated := src[0]&shuffleFlateFlag != 0
	stride := int(src[0] &^ byte(shuffleFlateFlag))
	src = src[1:]
	switch stride {
	case 1, 2, 4, 8:
	default:
		return nil, ErrCorrupt
	}
	if srcLen == 0 {
		if len(src) != 0 {
			return nil, ErrCorrupt
		}
		return dst, nil
	}
	if stride == 1 {
		if flated {
			return stdFlate.Decode(dst, src, srcLen)
		}
		return rleDecodeAppend(dst, src, srcLen)
	}
	// Decode the payload into pooled scratch, then unshuffle into dst.
	raw := bufpool.Get(srcLen)
	scratch := raw[:0]
	var err error
	if flated {
		scratch, err = stdFlate.Decode(scratch, src, srcLen)
	} else {
		scratch, err = rleDecodeAppend(scratch, src, srcLen)
	}
	if err != nil {
		bufpool.Put(raw)
		return nil, err
	}
	base := len(dst)
	dst = append(dst, scratch...) // grows dst by srcLen; bytes overwritten below
	unshuffleBytes(dst[base:], scratch, stride)
	bufpool.Put(scratch)
	return dst, nil
}

// appendShuffleRLE emits [stride][RLE(shuffled src)] into dst.
func appendShuffleRLE(dst, src []byte, stride int) []byte {
	dst = append(dst, byte(stride))
	if stride == 1 {
		return rleAppend(dst, src)
	}
	scratch := bufpool.Get(len(src))
	shuffleBytes(scratch, src, stride)
	dst = rleAppend(dst, scratch)
	bufpool.Put(scratch)
	return dst
}

// shuffleBytes/unshuffleBytes live in kernels.go: word-wise transposes
// for strides 4 and 8 with a byte-wise reference for the rest.

// The RLE stream is a PackBits-style token code:
//
//	token t < 0x80  → t+1 literal bytes follow (1..128)
//	token t ≥ 0x80  → the next byte repeats (t&0x7f)+3 times (3..130)
//
// Runs shorter than 3 ride in literal spans; worst case output is
// n + ceil(n/128) for incompressible input.

func rleAppend(dst, src []byte) []byte {
	i := 0
	for i < len(src) {
		// Measure the run starting at i (capped at the 130-byte token max).
		j := i
		for j+1 < len(src) && src[j+1] == src[i] && j-i < 129 {
			j++
		}
		if run := j - i + 1; run >= 3 {
			dst = append(dst, 0x80|byte(run-3), src[i])
			i = j + 1
			continue
		}
		// Literal span: until the next ≥3 run begins or 128 bytes.
		k := i + 1
		for k < len(src) && k-i < 128 {
			if k+2 < len(src) && src[k] == src[k+1] && src[k] == src[k+2] {
				break
			}
			k++
		}
		dst = append(dst, byte(k-i-1))
		dst = append(dst, src[i:k]...)
		i = k
	}
	return dst
}

// rleDecodeAppend appends exactly want decoded bytes to dst, erroring on
// any truncation, overrun, or trailing garbage.
func rleDecodeAppend(dst, src []byte, want int) ([]byte, error) {
	produced := 0
	for len(src) > 0 {
		t := src[0]
		src = src[1:]
		if t >= 0x80 {
			n := int(t&0x7f) + 3
			if len(src) < 1 || produced+n > want {
				return nil, ErrCorrupt
			}
			b := src[0]
			src = src[1:]
			for k := 0; k < n; k++ {
				dst = append(dst, b)
			}
			produced += n
			continue
		}
		n := int(t) + 1
		if len(src) < n || produced+n > want {
			return nil, ErrCorrupt
		}
		dst = append(dst, src[:n]...)
		src = src[n:]
		produced += n
	}
	if produced != want {
		return nil, ErrCorrupt
	}
	return dst, nil
}
