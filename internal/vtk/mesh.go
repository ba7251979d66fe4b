package vtk

import (
	"math"
	"slices"
)

func floatBits(v float32) uint32     { return math.Float32bits(v) }
func floatFromBits(b uint32) float32 { return math.Float32frombits(b) }

// TriangleMesh is the output of surface filters (VTK's vtkPolyData with
// triangle cells): flat triangle soup with per-vertex scalars. Every
// consecutive triple of vertices is one triangle; its normal is the facet
// normal, derived from the positions when it is needed (FacetNormal).
type TriangleMesh struct {
	Positions []float32 // xyz per vertex
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
	m.Scalars = m.Scalars[:0]
}

// Reserve makes room for n more triangles: the next n AddTriangle calls
// will not allocate.
func (m *TriangleMesh) Reserve(n int) {
	m.Positions = slices.Grow(m.Positions, 9*n)
	m.Scalars = slices.Grow(m.Scalars, 3*n)
}

// AddTriangle appends one triangle with per-vertex scalars. Storage grows
// geometrically — by a quarter once the mesh is large, as append does, so
// that a mesh kept for reuse holds little more than it needs — and not at
// all once the mesh has been Reset after holding as many triangles.
func (m *TriangleMesh) AddTriangle(p0, p1, p2 [3]float32, s0, s1, s2 float32) {
	np, ns := len(m.Positions), len(m.Scalars)
	if np+9 > cap(m.Positions) || ns+3 > cap(m.Scalars) {
		m.Reserve((ns/3 + 3072) / 4)
	}
	// Element by element: a composite literal would be built on the stack
	// and block-copied, and those wide loads of freshly written narrow
	// stores stall.
	m.Positions = m.Positions[:np+9]
	p := (*[9]float32)(m.Positions[np:])
	p[0], p[1], p[2] = p0[0], p0[1], p0[2]
	p[3], p[4], p[5] = p1[0], p1[1], p1[2]
	p[6], p[7], p[8] = p2[0], p2[1], p2[2]
	m.Scalars = m.Scalars[:ns+3]
	s := (*[3]float32)(m.Scalars[ns:])
	s[0], s[1], s[2] = s0, s1, s2
}

// FacetNormal returns triangle t's unit normal, (p1−p0)×(p2−p0) scaled to
// length one in float32 (left unscaled when its length is zero or NaN).
func (m *TriangleMesh) FacetNormal(t int) [3]float32 {
	p := (*[9]float32)(m.Positions[9*t:])
	ux, uy, uz := p[3]-p[0], p[4]-p[1], p[5]-p[2]
	vx, vy, vz := p[6]-p[0], p[7]-p[1], p[8]-p[2]
	nx, ny, nz := uy*vz-uz*vy, uz*vx-ux*vz, ux*vy-uy*vx
	l := float32(math.Sqrt(float64(nx*nx + ny*ny + nz*nz)))
	if l > 0 {
		nx, ny, nz = nx/l, ny/l, nz/l
	}
	return [3]float32{nx, ny, nz}
}

// Bounds returns the axis-aligned bounding box (min, max) of the mesh's
// vertices; zero boxes for empty meshes.
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

// Append concatenates other into m (the vtkAppendPolyData block-merge).
func (m *TriangleMesh) Append(other *TriangleMesh) {
	m.Positions = append(m.Positions, other.Positions...)
	m.Scalars = append(m.Scalars, other.Scalars...)
}
