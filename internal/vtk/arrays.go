// Package vtk implements the minimal VTK-like data model and filters the
// Colza pipelines need: regular grids (ImageData), unstructured grids,
// named data arrays, isosurface extraction, plane clipping, and block
// merging — plus the vtkMultiProcessController-style parallel controller
// abstraction whose dependency injection is what let the paper swap MPI
// for MoNA without touching the filters.
package vtk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrDecode reports malformed serialized data.
var ErrDecode = errors.New("vtk: malformed serialized dataset")

// DataArray is a named array of float32 tuples (VTK's vtkDataArray).
type DataArray struct {
	Name       string
	Components int
	Data       []float32
}

// NewDataArray allocates an array of n tuples with comps components each.
func NewDataArray(name string, comps, n int) *DataArray {
	if comps < 1 {
		comps = 1
	}
	return &DataArray{Name: name, Components: comps, Data: make([]float32, comps*n)}
}

// NumTuples returns the tuple count.
func (a *DataArray) NumTuples() int {
	if a.Components == 0 {
		return 0
	}
	return len(a.Data) / a.Components
}

// Range returns the (min, max) over all components; (0, 0) for empty.
func (a *DataArray) Range() (float32, float32) {
	if len(a.Data) == 0 {
		return 0, 0
	}
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range a.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// EncodedSize returns the exact number of bytes encodeArray appends, so
// staging paths can encode into a single exactly-sized (often pooled)
// buffer instead of growing through appends.
func (a *DataArray) EncodedSize() int {
	return 12 + len(a.Name) + 4*len(a.Data)
}

// arraysEncodedSize is the exact size of encodeArrays' output, including
// the leading count.
func arraysEncodedSize(arrays []*DataArray) int {
	n := 4
	for _, a := range arrays {
		n += a.EncodedSize()
	}
	return n
}

// encodeArray serializes a DataArray: the output is sized once, then
// filled by index.
func encodeArray(buf []byte, a *DataArray) []byte {
	off, n := len(buf), a.EncodedSize()
	buf = slices.Grow(buf, n)[:off+n]
	dst := buf[off:]
	binary.LittleEndian.PutUint32(dst, uint32(len(a.Name)))
	dst = dst[4+copy(dst[4:], a.Name):]
	binary.LittleEndian.PutUint32(dst, uint32(a.Components))
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(a.Data)))
	putFloat32s(dst[8:], a.Data)
	return buf
}

// putFloat32s writes vals little-endian into dst, which must hold
// 4*len(vals) bytes. Four values a step, re-slicing both sides: the form
// whose bounds checks the compiler drops (2.5x the per-value loop).
func putFloat32s(dst []byte, vals []float32) {
	for len(vals) >= 4 && len(dst) >= 16 {
		binary.LittleEndian.PutUint32(dst[0:4], math.Float32bits(vals[0]))
		binary.LittleEndian.PutUint32(dst[4:8], math.Float32bits(vals[1]))
		binary.LittleEndian.PutUint32(dst[8:12], math.Float32bits(vals[2]))
		binary.LittleEndian.PutUint32(dst[12:16], math.Float32bits(vals[3]))
		vals, dst = vals[4:], dst[16:]
	}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// getFloat32s reverses putFloat32s: src must hold 4*len(dst) bytes.
func getFloat32s(dst []float32, src []byte) {
	for len(dst) >= 4 && len(src) >= 16 {
		dst[0] = math.Float32frombits(binary.LittleEndian.Uint32(src[0:4]))
		dst[1] = math.Float32frombits(binary.LittleEndian.Uint32(src[4:8]))
		dst[2] = math.Float32frombits(binary.LittleEndian.Uint32(src[8:12]))
		dst[3] = math.Float32frombits(binary.LittleEndian.Uint32(src[12:16]))
		dst, src = dst[4:], src[16:]
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// decodeArrayInto decodes one array into a, overwriting every field and
// keeping a's name and value storage where they fit, and returns the rest
// of data.
func decodeArrayInto(a *DataArray, data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, ErrDecode
	}
	nl := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if nl < 0 || len(data) < nl+8 {
		return nil, ErrDecode
	}
	if a.Name != string(data[:nl]) {
		a.Name = string(data[:nl])
	}
	data = data[nl:]
	a.Components = int(binary.LittleEndian.Uint32(data))
	n := int(binary.LittleEndian.Uint32(data[4:]))
	data = data[8:]
	if a.Components < 1 || n < 0 || len(data) < 4*n {
		return nil, ErrDecode
	}
	a.Data = resize(a.Data, n)
	getFloat32s(a.Data, data[:4*n])
	return data[4*n:], nil
}

// resize returns s at length n, on s's storage when it holds n; a nil s
// gets a new slice, so a result never depends on whether s was nil.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func encodeArrays(buf []byte, arrays []*DataArray) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(arrays)))
	buf = append(buf, tmp[:]...)
	for _, a := range arrays {
		buf = encodeArray(buf, a)
	}
	return buf
}

// decodeArraysInto decodes a counted list of arrays into dst's arrays by
// position (decodeArrayInto), making the ones dst lacks, and returns them
// (nil for none) with the rest of data. dst's arrays are overwritten: no
// one else may read them.
func decodeArraysInto(dst []*DataArray, data []byte) ([]*DataArray, []byte, error) {
	if len(data) < 4 {
		return nil, nil, ErrDecode
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	// Every array takes at least 12 bytes (name length, components, value
	// count), so a count the rest of the input cannot hold is a lie, and
	// the capacity below never exceeds what the input can fill.
	if n < 0 || n > len(data)/12 {
		return nil, nil, ErrDecode
	}
	if n == 0 {
		return nil, data, nil
	}
	out := dst
	if cap(out) < n {
		out = make([]*DataArray, n)
		copy(out, dst)
	} else {
		out = out[:n]
		clear(out[min(len(dst), n):])
	}
	for i, a := range out {
		if a == nil {
			a = &DataArray{}
			out[i] = a
		}
		rest, err := decodeArrayInto(a, data)
		if err != nil {
			return nil, nil, err
		}
		data = rest
	}
	return out, data, nil
}

// allTuples reports whether every array holds exactly n tuples.
func allTuples(arrays []*DataArray, n int) bool {
	for _, a := range arrays {
		if len(a.Data) != a.Components*n {
			return false
		}
	}
	return true
}

// findArray looks an array up by name.
func findArray(arrays []*DataArray, name string) (*DataArray, error) {
	for _, a := range arrays {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("vtk: no array named %q", name)
}
