package vtk

import "math"

// Plane is the half-space dot(Normal, p) >= Offset.
type Plane struct {
	Normal [3]float32
	Offset float32
}

// Eval returns the signed distance-like value of p against the plane.
func (pl Plane) Eval(p [3]float32) float32 {
	return pl.Normal[0]*p[0] + pl.Normal[1]*p[1] + pl.Normal[2]*p[2] - pl.Offset
}

// ClipMesh keeps the part of the mesh on the positive side of the plane,
// splitting crossing triangles (VTK's vtkClipPolyData). The Gray-Scott
// pipeline combines this with multi-level isosurfaces to look inside the
// domain, as in the paper's Figure 3a. It is clipTriangle over a stored
// mesh; ExtractIsosurfaces applies the same function to each triangle as it
// is emitted.
func ClipMesh(m *TriangleMesh, pl Plane) *TriangleMesh {
	out := &TriangleMesh{}
	nt := m.NumTriangles()
	for t := 0; t < nt; t++ {
		pos := (*[9]float32)(m.Positions[9*t:])
		clipTriangle(out,
			&[3][3]float32{{pos[0], pos[1], pos[2]}, {pos[3], pos[4], pos[5]}, {pos[6], pos[7], pos[8]}},
			(*[3]float32)(m.Scalars[3*t:]), &pl)
	}
	return out
}

// planeBound bounds n·p − Offset over a box of float32 corners, axis by
// axis in float64 (a product of two float32s is exact): lo and hi are its
// smallest and largest values, scale the sum of the terms' magnitudes.
// bound seeds scale with 2^-126 (the smallest normal float32) per unit of
// normal, so that the margin also covers subnormal rounding.
type planeBound struct{ lo, hi, scale float64 }

func (pl *Plane) bound() planeBound {
	n, off := pl.Normal, float64(pl.Offset)
	return planeBound{-off, -off, math.Abs(off) + 0x1p-126*(1+math.Abs(float64(n[0]))+math.Abs(float64(n[1]))+math.Abs(float64(n[2])))}
}

func (b planeBound) add(n, c0, c1 float32) planeBound {
	p, q := float64(n)*float64(c0), float64(n)*float64(c1)
	return planeBound{b.lo + min(p, q), b.hi + max(p, q), b.scale + max(math.Abs(p), math.Abs(q))}
}

// discarded reports that clipTriangle keeps nothing of a triangle whose
// vertices lie within a float32 rounding of the box (marching interpolates
// between corners): Eval's six float32 roundings err by far less than
// 1e-4·scale while no term can overflow. NaN (max keeps it) and ±Inf fail.
func (b planeBound) discarded() bool {
	return b.hi < -1e-4*b.scale && b.scale < 0x1p100
}

// kept mirrors discarded, with its margin and cap: every vertex within a
// float32 rounding of the box has Eval > 0, so clipTriangle keeps such a
// triangle whole — unless a vertex is NaN (Eval of a NaN vertex is not
// ≥ 0), which the box cannot tell.
func (b planeBound) kept() bool {
	return b.lo > 1e-4*b.scale && b.scale < 0x1p100
}

// clipTriangle appends the part of one triangle on the positive side of the
// plane: nothing, the triangle itself, or its clipped polygon (3 or 4
// vertices) as a fan.
func clipTriangle(out *TriangleMesh, p *[3][3]float32, s *[3]float32, pl *Plane) {
	d := [3]float32{pl.Eval(p[0]), pl.Eval(p[1]), pl.Eval(p[2])}
	inside := 0
	for _, v := range d {
		if v >= 0 {
			inside++
		}
	}
	switch inside {
	case 0:
		return
	case 3:
		out.AddTriangle(p[0], p[1], p[2], s[0], s[1], s[2])
		return
	}
	// Walk the triangle edges, Sutherland-Hodgman style. One or two
	// vertices are kept and the boundary is crossed exactly twice, so the
	// polygon has at most four vertices.
	var poly [4][3]float32
	var polyS [4]float32
	n := 0
	for i := 0; i < 3; i++ {
		j := (i + 1) % 3
		if d[i] >= 0 {
			poly[n], polyS[n] = p[i], s[i]
			n++
		}
		if (d[i] >= 0) != (d[j] >= 0) {
			t := d[i] / (d[i] - d[j])
			poly[n] = [3]float32{
				p[i][0] + t*(p[j][0]-p[i][0]),
				p[i][1] + t*(p[j][1]-p[i][1]),
				p[i][2] + t*(p[j][2]-p[i][2]),
			}
			polyS[n] = s[i] + t*(s[j]-s[i])
			n++
		}
	}
	for i := 2; i < n; i++ {
		out.AddTriangle(poly[0], poly[i-1], poly[i], polyS[0], polyS[i-1], polyS[i])
	}
}
