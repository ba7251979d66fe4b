package collectives

import (
	"encoding/binary"
	"math"
)

// XorBytes is the binary-xor reduction used by the paper's Table II
// benchmark. It folds in place when acc is long enough.
func XorBytes(acc, in []byte) []byte {
	n := len(acc)
	if len(in) < n {
		n = len(in)
	}
	for i := 0; i < n; i++ {
		acc[i] ^= in[i]
	}
	return acc
}

// SumFloat64 adds vectors of little-endian float64 values.
func SumFloat64(acc, in []byte) []byte {
	n := len(acc) / 8
	if len(in)/8 < n {
		n = len(in) / 8
	}
	for i := 0; i < n; i++ {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc[8*i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		binary.LittleEndian.PutUint64(acc[8*i:], math.Float64bits(a+b))
	}
	return acc
}

// MinFloat32 keeps the element-wise minimum of float32 vectors.
func MinFloat32(acc, in []byte) []byte {
	n := len(acc) / 4
	if len(in)/4 < n {
		n = len(in) / 4
	}
	for i := 0; i < n; i++ {
		a := math.Float32frombits(binary.LittleEndian.Uint32(acc[4*i:]))
		b := math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:]))
		if b < a {
			binary.LittleEndian.PutUint32(acc[4*i:], math.Float32bits(b))
		}
	}
	return acc
}

// MaxFloat32 keeps the element-wise maximum of float32 vectors.
func MaxFloat32(acc, in []byte) []byte {
	n := len(acc) / 4
	if len(in)/4 < n {
		n = len(in) / 4
	}
	for i := 0; i < n; i++ {
		a := math.Float32frombits(binary.LittleEndian.Uint32(acc[4*i:]))
		b := math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:]))
		if b > a {
			binary.LittleEndian.PutUint32(acc[4*i:], math.Float32bits(b))
		}
	}
	return acc
}

// SumInt64 adds vectors of little-endian int64 values.
func SumInt64(acc, in []byte) []byte {
	n := len(acc) / 8
	if len(in)/8 < n {
		n = len(in) / 8
	}
	for i := 0; i < n; i++ {
		a := int64(binary.LittleEndian.Uint64(acc[8*i:]))
		b := int64(binary.LittleEndian.Uint64(in[8*i:]))
		binary.LittleEndian.PutUint64(acc[8*i:], uint64(a+b))
	}
	return acc
}

// EncodeSlices frames a list of byte slices into one buffer; nil slices are
// preserved as empty.
func EncodeSlices(parts [][]byte) []byte {
	total := 4
	for _, p := range parts {
		total += 4 + len(p)
	}
	out := make([]byte, 0, total)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(parts)))
	out = append(out, hdr[:]...)
	for _, p := range parts {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		out = append(out, hdr[:]...)
		out = append(out, p...)
	}
	return out
}

// DecodeSlices reverses EncodeSlices. The parts alias frame. A frame that
// EncodeSlices could not have produced is refused: a count the rest of the
// frame cannot hold (every part takes at least its 4-byte length), a part
// running past the end, or bytes after the last part.
func DecodeSlices(frame []byte) ([][]byte, error) {
	if len(frame) < 4 {
		return nil, errFrame
	}
	n := int(binary.LittleEndian.Uint32(frame))
	frame = frame[4:]
	if n > len(frame)/4 {
		return nil, errFrame
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(frame) < 4 {
			return nil, errFrame
		}
		l := int(binary.LittleEndian.Uint32(frame))
		frame = frame[4:]
		if len(frame) < l {
			return nil, errFrame
		}
		out = append(out, frame[:l:l])
		frame = frame[l:]
	}
	if len(frame) != 0 {
		return nil, errFrame
	}
	return out, nil
}

// errFrame reports a malformed slice frame.
var errFrame = errFrameType{}

type errFrameType struct{}

func (errFrameType) Error() string { return "collectives: malformed slice frame" }
