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

// MinFloat64 keeps the element-wise minimum of float64 vectors (a maximum
// is the minimum of the negated values).
func MinFloat64(acc, in []byte) []byte {
	n := len(acc) / 8
	if len(in)/8 < n {
		n = len(in) / 8
	}
	for i := 0; i < n; i++ {
		a := math.Float64frombits(binary.LittleEndian.Uint64(acc[8*i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		if b < a {
			binary.LittleEndian.PutUint64(acc[8*i:], math.Float64bits(b))
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
