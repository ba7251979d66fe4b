package vtk

import "encoding/binary"

// CellType enumerates the unstructured cell kinds we support (a subset of
// VTK's cell zoo sufficient for the Deep Water Impact proxy).
type CellType uint8

// Supported cell types, with VTK's numeric values.
const (
	CellTriangle   CellType = 5
	CellTetra      CellType = 10
	CellVoxel      CellType = 11
	CellHexahedron CellType = 12
)

// PointsPerCell returns the vertex count of a cell type.
func (t CellType) PointsPerCell() int {
	switch t {
	case CellTriangle:
		return 3
	case CellTetra:
		return 4
	case CellVoxel, CellHexahedron:
		return 8
	default:
		return 0
	}
}

// UnstructuredGrid is VTK's vtkUnstructuredGrid: explicit points plus a
// list of cells over them, with optional point and cell data.
type UnstructuredGrid struct {
	Points    []float32 // xyz interleaved, 3*NumPoints
	CellTypes []CellType
	Conn      []int32 // concatenated cell connectivity
	Offsets   []int32 // Offsets[i] is the start of cell i in Conn; len = NumCells+1
	PointData []*DataArray
	CellData  []*DataArray
}

// NewUnstructuredGrid returns an empty grid.
func NewUnstructuredGrid() *UnstructuredGrid {
	return &UnstructuredGrid{Offsets: []int32{0}}
}

// NumPoints returns the point count.
func (g *UnstructuredGrid) NumPoints() int { return len(g.Points) / 3 }

// NumCells returns the cell count.
func (g *UnstructuredGrid) NumCells() int { return len(g.CellTypes) }

// AddPoint appends a point and returns its index.
func (g *UnstructuredGrid) AddPoint(x, y, z float32) int32 {
	g.Points = append(g.Points, x, y, z)
	return int32(g.NumPoints() - 1)
}

// AddCell appends a cell over the given point indices.
func (g *UnstructuredGrid) AddCell(t CellType, pts ...int32) {
	g.CellTypes = append(g.CellTypes, t)
	g.Conn = append(g.Conn, pts...)
	g.Offsets = append(g.Offsets, int32(len(g.Conn)))
}

// Cell returns the connectivity slice of cell i.
func (g *UnstructuredGrid) Cell(i int) []int32 {
	return g.Conn[g.Offsets[i]:g.Offsets[i+1]]
}

// CellCentroid computes the centroid of cell i.
func (g *UnstructuredGrid) CellCentroid(i int) [3]float32 {
	var c [3]float32
	pts := g.Cell(i)
	for _, p := range pts {
		c[0] += g.Points[3*p]
		c[1] += g.Points[3*p+1]
		c[2] += g.Points[3*p+2]
	}
	n := float32(len(pts))
	if n > 0 {
		c[0] /= n
		c[1] /= n
		c[2] /= n
	}
	return c
}

// AddCellArray allocates and attaches a cell data array.
func (g *UnstructuredGrid) AddCellArray(name string, comps int) *DataArray {
	a := NewDataArray(name, comps, g.NumCells())
	g.CellData = append(g.CellData, a)
	return a
}

// CellArray finds a cell array by name.
func (g *UnstructuredGrid) CellArray(name string) (*DataArray, error) {
	return findArray(g.CellData, name)
}

// PointArray finds a point array by name.
func (g *UnstructuredGrid) PointArray(name string) (*DataArray, error) {
	return findArray(g.PointData, name)
}

// EncodedSize returns the exact length of Encode's output.
func (g *UnstructuredGrid) EncodedSize() int {
	return 12 + 4*len(g.Points) + len(g.CellTypes) + 4*len(g.Conn) +
		arraysEncodedSize(g.PointData) + arraysEncodedSize(g.CellData)
}

// Encode serializes the grid for staging (the VTU-file analog).
func (g *UnstructuredGrid) Encode() []byte {
	return g.AppendEncode(make([]byte, 0, g.EncodedSize()))
}

// AppendEncode appends the serialized grid to buf; with enough spare
// capacity (EncodedSize) it does not allocate, letting staging puts encode
// into pooled scratch.
func (g *UnstructuredGrid) AppendEncode(buf []byte) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(g.Points)))
	buf = append(buf, tmp[:]...)
	for _, v := range g.Points {
		binary.LittleEndian.PutUint32(tmp[:], floatBits(v))
		buf = append(buf, tmp[:]...)
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(g.CellTypes)))
	buf = append(buf, tmp[:]...)
	for _, t := range g.CellTypes {
		buf = append(buf, byte(t))
	}
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(g.Conn)))
	buf = append(buf, tmp[:]...)
	for _, v := range g.Conn {
		binary.LittleEndian.PutUint32(tmp[:], uint32(v))
		buf = append(buf, tmp[:]...)
	}
	buf = encodeArrays(buf, g.PointData)
	buf = encodeArrays(buf, g.CellData)
	return buf
}

// DecodeUnstructuredGrid reverses Encode into a new grid.
func DecodeUnstructuredGrid(data []byte) (*UnstructuredGrid, error) {
	return DecodeUnstructuredGridInto(nil, data)
}

// DecodeUnstructuredGridInto reverses Encode into spare, a grid no one
// else reads, and returns it; with a nil spare, into a new grid. Every
// field of the result is overwritten on spare's storage where it fits
// (arrays by position, as DecodeImageDataInto), and the result is the one
// DecodeUnstructuredGrid returns, whatever spare held before. It refuses a
// grid any filter could index out of: a cell type of unknown size, a
// connectivity entry outside the points, or a point/cell array whose tuple
// count is not the point/cell count. On an error spare's contents are
// unspecified, but it stays usable as a spare.
func DecodeUnstructuredGridInto(spare *UnstructuredGrid, data []byte) (*UnstructuredGrid, error) {
	g := spare
	if g == nil {
		g = &UnstructuredGrid{}
	}
	if len(data) < 4 {
		return nil, ErrDecode
	}
	np := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if np < 0 || np%3 != 0 || len(data) < 4*np {
		return nil, ErrDecode
	}
	g.Points = resize(g.Points, np)
	for i := range g.Points {
		g.Points[i] = floatFromBits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	data = data[4*np:]
	if len(data) < 4 {
		return nil, ErrDecode
	}
	nc := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if nc < 0 || len(data) < nc {
		return nil, ErrDecode
	}
	g.CellTypes = resize(g.CellTypes, nc)
	for i := range g.CellTypes {
		g.CellTypes[i] = CellType(data[i])
	}
	data = data[nc:]
	if len(data) < 4 {
		return nil, ErrDecode
	}
	cl := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if cl < 0 || len(data) < 4*cl {
		return nil, ErrDecode
	}
	g.Conn = resize(g.Conn, cl)
	npts := uint32(np / 3)
	for i := range g.Conn {
		p := binary.LittleEndian.Uint32(data[4*i:])
		if p >= npts { // a negative int32 reads as a large uint32
			return nil, ErrDecode
		}
		g.Conn[i] = int32(p)
	}
	data = data[4*cl:]
	// Rebuild offsets from cell types.
	g.Offsets = resize(g.Offsets, nc+1)
	off := 0
	for i, t := range g.CellTypes {
		n := t.PointsPerCell()
		if n == 0 || off+n > cl {
			return nil, ErrDecode
		}
		off += n
		g.Offsets[i+1] = int32(off)
	}
	g.Offsets[0] = 0
	if off != cl {
		return nil, ErrDecode
	}
	pd, data, err := decodeArraysInto(g.PointData, data)
	if err != nil || !allTuples(pd, g.NumPoints()) {
		return nil, ErrDecode
	}
	g.PointData = pd
	cd, _, err := decodeArraysInto(g.CellData, data)
	if err != nil || !allTuples(cd, nc) {
		return nil, ErrDecode
	}
	g.CellData = cd
	return g, nil
}
