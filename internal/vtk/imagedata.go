package vtk

import "encoding/binary"

// ImageData is a regular grid (VTK's vtkImageData): Dims[k] points along
// axis k, with world-space origin and spacing. Point data arrays hold one
// tuple per grid point in x-fastest order.
type ImageData struct {
	Dims      [3]int
	Origin    [3]float64
	Spacing   [3]float64
	PointData []*DataArray
}

// NewImageData allocates a grid of the given dimensions.
func NewImageData(dims [3]int, origin, spacing [3]float64) *ImageData {
	for k := 0; k < 3; k++ {
		if dims[k] < 1 {
			dims[k] = 1
		}
		if spacing[k] == 0 {
			spacing[k] = 1
		}
	}
	return &ImageData{Dims: dims, Origin: origin, Spacing: spacing}
}

// NumPoints returns the point count.
func (img *ImageData) NumPoints() int { return img.Dims[0] * img.Dims[1] * img.Dims[2] }

// NumCells returns the cell (voxel) count.
func (img *ImageData) NumCells() int {
	n := 1
	for k := 0; k < 3; k++ {
		if img.Dims[k] < 2 {
			return 0
		}
		n *= img.Dims[k] - 1
	}
	return n
}

// Index converts (i, j, k) grid coordinates to a flat point index.
func (img *ImageData) Index(i, j, k int) int {
	return i + img.Dims[0]*(j+img.Dims[1]*k)
}

// Point returns the world-space position of grid point (i, j, k).
func (img *ImageData) Point(i, j, k int) [3]float64 {
	return [3]float64{
		img.Origin[0] + float64(i)*img.Spacing[0],
		img.Origin[1] + float64(j)*img.Spacing[1],
		img.Origin[2] + float64(k)*img.Spacing[2],
	}
}

// AddPointArray allocates and attaches a scalar point array.
func (img *ImageData) AddPointArray(name string, comps int) *DataArray {
	a := NewDataArray(name, comps, img.NumPoints())
	img.PointData = append(img.PointData, a)
	return a
}

// PointArray finds a point array by name.
func (img *ImageData) PointArray(name string) (*DataArray, error) {
	return findArray(img.PointData, name)
}

// EncodedSize returns the exact length of Encode's output: 12 bytes of
// dims, 24+24 of origin/spacing, then the point arrays.
func (img *ImageData) EncodedSize() int {
	return 60 + arraysEncodedSize(img.PointData)
}

// Encode serializes the grid for staging.
func (img *ImageData) Encode() []byte {
	return img.AppendEncode(make([]byte, 0, img.EncodedSize()))
}

// AppendEncode appends the serialized grid to buf and returns the extended
// slice. With cap(buf)-len(buf) >= EncodedSize() — e.g. a pooled scratch
// buffer — it performs no allocation, which is how staging puts reuse
// transfer buffers across iterations.
func (img *ImageData) AppendEncode(buf []byte) []byte {
	var tmp [8]byte
	for k := 0; k < 3; k++ {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(img.Dims[k]))
		buf = append(buf, tmp[:4]...)
	}
	for k := 0; k < 3; k++ {
		binary.LittleEndian.PutUint64(tmp[:], uint64(int64(img.Origin[k]*1e9)))
		buf = append(buf, tmp[:]...)
	}
	for k := 0; k < 3; k++ {
		binary.LittleEndian.PutUint64(tmp[:], uint64(int64(img.Spacing[k]*1e9)))
		buf = append(buf, tmp[:]...)
	}
	return encodeArrays(buf, img.PointData)
}

// DecodeImageData reverses Encode into a new grid.
func DecodeImageData(data []byte) (*ImageData, error) {
	return DecodeImageDataInto(nil, data)
}

// DecodeImageDataInto reverses Encode into spare, a grid no one else
// reads, and returns it; with a nil spare, into a new grid. Every field of
// the result is overwritten, and spare's point arrays are reused by
// position, each keeping its name and its values' storage where they fit,
// so a spare of the same shape decodes without allocating. The result is
// the one DecodeImageData returns, whatever spare held before. On an error
// spare's contents are unspecified, but it stays usable as a spare.
func DecodeImageDataInto(spare *ImageData, data []byte) (*ImageData, error) {
	if len(data) < 12+48 {
		return nil, ErrDecode
	}
	var dims [3]int
	for k := 0; k < 3; k++ {
		dims[k] = int(binary.LittleEndian.Uint32(data[4*k:]))
		if dims[k] < 1 || dims[k] > 1<<16 {
			return nil, ErrDecode
		}
	}
	img := spare
	if img == nil {
		img = &ImageData{}
	}
	img.Dims = dims
	data = data[12:]
	for k := 0; k < 3; k++ {
		img.Origin[k] = float64(int64(binary.LittleEndian.Uint64(data[8*k:]))) / 1e9
	}
	data = data[24:]
	for k := 0; k < 3; k++ {
		img.Spacing[k] = float64(int64(binary.LittleEndian.Uint64(data[8*k:]))) / 1e9
	}
	data = data[24:]
	arrays, _, err := decodeArraysInto(img.PointData, data)
	if err != nil || !allTuples(arrays, img.NumPoints()) {
		return nil, ErrDecode
	}
	img.PointData = arrays
	return img, nil
}
