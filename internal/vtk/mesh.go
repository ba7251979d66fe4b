package vtk

import (
	"math"
	"slices"
)

func floatBits(v float32) uint32     { return math.Float32bits(v) }
func floatFromBits(b uint32) float32 { return math.Float32frombits(b) }

// TriangleMesh is the output of surface filters (VTK's vtkPolyData with
// triangle cells): flat triangle soup with per-vertex normals and scalars.
// Every consecutive triple of vertices is one triangle.
type TriangleMesh struct {
	Positions []float32 // xyz per vertex
	Normals   []float32 // xyz per vertex
	Scalars   []float32 // one per vertex
}

// NumTriangles returns the triangle count.
func (m *TriangleMesh) NumTriangles() int { return len(m.Positions) / 9 }

// NumVertices returns the vertex count.
func (m *TriangleMesh) NumVertices() int { return len(m.Positions) / 3 }

// Reset empties the mesh and keeps its storage, so that refilling it with
// a mesh no larger than the previous one allocates nothing.
func (m *TriangleMesh) Reset() {
	m.Positions = m.Positions[:0]
	m.Normals = m.Normals[:0]
	m.Scalars = m.Scalars[:0]
}

// Reserve makes room for n more triangles: the next n AddTriangle calls
// will not allocate.
func (m *TriangleMesh) Reserve(n int) {
	m.Positions = slices.Grow(m.Positions, 9*n)
	m.Normals = slices.Grow(m.Normals, 9*n)
	m.Scalars = slices.Grow(m.Scalars, 3*n)
}

// AddTriangle appends one triangle with per-vertex scalars; the facet
// normal is computed and shared by the three vertices. Storage grows
// geometrically — by a quarter once the mesh is large, as append does, so
// that a mesh kept for reuse holds little more than it needs — and not at
// all once the mesh has been Reset after holding as many triangles.
func (m *TriangleMesh) AddTriangle(p0, p1, p2 [3]float32, s0, s1, s2 float32) {
	ux, uy, uz := p1[0]-p0[0], p1[1]-p0[1], p1[2]-p0[2]
	vx, vy, vz := p2[0]-p0[0], p2[1]-p0[1], p2[2]-p0[2]
	nx, ny, nz := uy*vz-uz*vy, uz*vx-ux*vz, ux*vy-uy*vx
	l := float32(math.Sqrt(float64(nx*nx + ny*ny + nz*nz)))
	if l > 0 {
		nx, ny, nz = nx/l, ny/l, nz/l
	}
	np, nn, ns := len(m.Positions), len(m.Normals), len(m.Scalars)
	if np+9 > cap(m.Positions) || nn+9 > cap(m.Normals) || ns+3 > cap(m.Scalars) {
		m.Reserve((ns/3 + 3072) / 4)
	}
	m.Positions = m.Positions[:np+9]
	*(*[9]float32)(m.Positions[np:]) = [9]float32{
		p0[0], p0[1], p0[2], p1[0], p1[1], p1[2], p2[0], p2[1], p2[2],
	}
	m.Normals = m.Normals[:nn+9]
	*(*[9]float32)(m.Normals[nn:]) = [9]float32{nx, ny, nz, nx, ny, nz, nx, ny, nz}
	m.Scalars = m.Scalars[:ns+3]
	*(*[3]float32)(m.Scalars[ns:]) = [3]float32{s0, s1, s2}
}

// Bounds returns the axis-aligned bounding box (min, max); zero boxes for
// empty meshes.
func (m *TriangleMesh) Bounds() ([3]float32, [3]float32) {
	var lo, hi [3]float32
	if len(m.Positions) == 0 {
		return lo, hi
	}
	for k := 0; k < 3; k++ {
		lo[k] = float32(math.Inf(1))
		hi[k] = float32(math.Inf(-1))
	}
	for i := 0; i+2 < len(m.Positions); i += 3 {
		for k := 0; k < 3; k++ {
			v := m.Positions[i+k]
			if v < lo[k] {
				lo[k] = v
			}
			if v > hi[k] {
				hi[k] = v
			}
		}
	}
	return lo, hi
}

// Append concatenates other into m (the vtkAppendPolyData block-merge).
func (m *TriangleMesh) Append(other *TriangleMesh) {
	m.Positions = append(m.Positions, other.Positions...)
	m.Normals = append(m.Normals, other.Normals...)
	m.Scalars = append(m.Scalars, other.Scalars...)
}
