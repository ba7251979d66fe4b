package vtk

import (
	"math"
	"slices"
)

func floatBits(v float32) uint32     { return math.Float32bits(v) }
func floatFromBits(b uint32) float32 { return math.Float32frombits(b) }

// maxMeshVertices is how many vertices a TriangleMesh can index.
const maxMeshVertices uint64 = 1 << 32

// TriangleMesh is the output of surface filters (VTK's vtkPolyData with
// triangle cells): points with per-vertex scalars, and triangles as triples
// of indices into them. A vertex may be shared by any number of triangles;
// ExtractIsosurfaces shares each crossing among the triangles that use it
// (crossingTable), AddTriangle gives every triangle three vertices of its
// own. A triangle's normal is the facet normal, derived from the positions
// when it is needed (FacetNormal).
type TriangleMesh struct {
	Positions []float32 // xyz per vertex
	Scalars   []float32 // one per vertex
	Indices   []uint32  // three vertex indices per triangle

	crossings *crossingTable // ExtractIsosurfaces' scratch, kept across Reset
}

// NumTriangles returns the triangle count.
func (m *TriangleMesh) NumTriangles() int { return len(m.Indices) / 3 }

// NumVertices returns the vertex count.
func (m *TriangleMesh) NumVertices() int { return len(m.Positions) / 3 }

// Reset empties the mesh and keeps its storage, so that refilling it with
// a mesh no larger than the previous one allocates nothing.
func (m *TriangleMesh) Reset() {
	m.Positions = m.Positions[:0]
	m.Scalars = m.Scalars[:0]
	m.Indices = m.Indices[:0]
}

// Reserve makes room for n more triangles of three vertices each: the next
// n AddTriangle calls will not allocate.
func (m *TriangleMesh) Reserve(n int) {
	m.reserveVertices(3 * n)
	m.reserveTriangles(n)
}

// reserveVertices makes room for n more vertices. A mesh indexes at most
// maxMeshVertices; growing past that panics, since no index could name the
// vertices beyond (ExtractIsosurfaces refuses such a surface with an error
// before it gets here).
func (m *TriangleMesh) reserveVertices(n int) {
	if uint64(m.NumVertices()+n) > maxMeshVertices {
		panic("vtk: a TriangleMesh holds at most 2^32 vertices")
	}
	m.Positions = slices.Grow(m.Positions, 3*n)
	m.Scalars = slices.Grow(m.Scalars, n)
}

func (m *TriangleMesh) reserveTriangles(n int) { m.Indices = slices.Grow(m.Indices, 3*n) }

// Storage grows geometrically — by a quarter once the mesh is large, as
// append does, so that a mesh kept for reuse holds little more than it
// needs — and not at all once the mesh has been Reset after holding as
// much. roomFor makes room for nv more vertices and nt more triangles.
func (m *TriangleMesh) roomFor(nv, nt int) {
	if v := len(m.Scalars) + nv; v > cap(m.Scalars) || 3*v > cap(m.Positions) {
		grow := max(nv, (v+3072)/4)
		if left := maxMeshVertices - uint64(len(m.Scalars)); uint64(grow) > left {
			grow = max(nv, int(left)) // growth stops at the limit, not short of it
		}
		m.reserveVertices(grow)
	}
	if t := len(m.Indices)/3 + nt; 3*t > cap(m.Indices) {
		m.reserveTriangles(max(nt, (t+1024)/4))
	}
}

// addVertex appends one vertex and returns its index; the caller has made
// room (roomFor). Element by element: a composite literal would be built on
// the stack and block-copied, and those wide loads of freshly written
// narrow stores stall.
func (m *TriangleMesh) addVertex(p *[3]float32, s float32) uint32 {
	n := len(m.Scalars)
	m.Scalars = append(m.Scalars, s)
	np := len(m.Positions)
	m.Positions = m.Positions[:np+3]
	q := (*[3]float32)(m.Positions[np:])
	q[0], q[1], q[2] = p[0], p[1], p[2]
	return uint32(n)
}

// addIndices appends one triangle over existing vertices; the caller has
// made room (roomFor).
func (m *TriangleMesh) addIndices(a, b, c uint32) {
	ni := len(m.Indices)
	m.Indices = m.Indices[:ni+3]
	t := (*[3]uint32)(m.Indices[ni:])
	t[0], t[1], t[2] = a, b, c
}

// AddTriangle appends one triangle with three vertices of its own and
// their scalars.
func (m *TriangleMesh) AddTriangle(p0, p1, p2 [3]float32, s0, s1, s2 float32) {
	m.roomFor(3, 1)
	a := m.addVertex(&p0, s0)
	m.addVertex(&p1, s1)
	m.addVertex(&p2, s2)
	m.addIndices(a, a+1, a+2)
}

// triangle returns the positions of triangle t's three vertices.
func (m *TriangleMesh) triangle(t int) (p0, p1, p2 *[3]float32) {
	ix := (*[3]uint32)(m.Indices[3*t:])
	return (*[3]float32)(m.Positions[3*ix[0]:]), (*[3]float32)(m.Positions[3*ix[1]:]), (*[3]float32)(m.Positions[3*ix[2]:])
}

// FacetNormal returns triangle t's unit normal, (p1−p0)×(p2−p0) scaled to
// length one in float32 (left unscaled when its length is zero or NaN).
func (m *TriangleMesh) FacetNormal(t int) [3]float32 {
	p0, p1, p2 := m.triangle(t)
	ux, uy, uz := p1[0]-p0[0], p1[1]-p0[1], p1[2]-p0[2]
	vx, vy, vz := p2[0]-p0[0], p2[1]-p0[1], p2[2]-p0[2]
	nx, ny, nz := uy*vz-uz*vy, uz*vx-ux*vz, ux*vy-uy*vx
	l := float32(math.Sqrt(float64(nx*nx + ny*ny + nz*nz)))
	if l > 0 {
		nx, ny, nz = nx/l, ny/l, nz/l
	}
	return [3]float32{nx, ny, nz}
}

// Bounds returns the axis-aligned bounding box (min, max) of the mesh's
// vertices; zero boxes for meshes without vertices.
func (m *TriangleMesh) Bounds() (lo, hi [3]float32) {
	if len(m.Positions) == 0 {
		return lo, hi
	}
	lo, hi = EmptyBounds()
	return FoldBounds(lo, hi, m.Positions)
}

// EmptyBounds is the box FoldBounds starts from: +Inf below, −Inf above.
func EmptyBounds() (lo, hi [3]float32) {
	inf := float32(math.Inf(1))
	return [3]float32{inf, inf, inf}, [3]float32{-inf, -inf, -inf}
}

// FoldBounds widens the box [lo, hi] to hold every xyz triple of
// positions. A NaN coordinate is ignored; ±Inf counts. The box is held in
// six locals: indexing the arrays in the loop costs a quarter more.
func FoldBounds(lo, hi [3]float32, positions []float32) ([3]float32, [3]float32) {
	lx, ly, lz, hx, hy, hz := lo[0], lo[1], lo[2], hi[0], hi[1], hi[2]
	for ; len(positions) >= 3; positions = positions[3:] {
		lx, hx = widen(lx, hx, positions[0])
		ly, hy = widen(ly, hy, positions[1])
		lz, hz = widen(lz, hz, positions[2])
	}
	return [3]float32{lx, ly, lz}, [3]float32{hx, hy, hz}
}

// widen returns [l, h] widened to hold v; a NaN v leaves it as it is.
func widen(l, h, v float32) (float32, float32) {
	if v < l {
		l = v
	}
	if v > h {
		h = v
	}
	return l, h
}

// Append concatenates other into m (the vtkAppendPolyData block-merge):
// other's vertices follow m's, and its triangles index them there.
func (m *TriangleMesh) Append(other *TriangleMesh) {
	base := m.NumVertices()
	if uint64(base+other.NumVertices()) > maxMeshVertices {
		panic("vtk: a TriangleMesh holds at most 2^32 vertices")
	}
	m.Positions = append(m.Positions, other.Positions...)
	m.Scalars = append(m.Scalars, other.Scalars...)
	m.Indices = slices.Grow(m.Indices, len(other.Indices))
	for _, ix := range other.Indices {
		m.Indices = append(m.Indices, ix+uint32(base))
	}
}
