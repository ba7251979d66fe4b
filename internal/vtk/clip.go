package vtk

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
