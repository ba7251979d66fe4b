package vtk

import "math"

// The extraction, clip and append code as it stood at commit eb8b19a, kept
// as the reference the one-pass kernel is property-tested against
// (kernel_test.go). Nothing outside tests calls these.

// refAddTriangle is the parent's TriangleMesh.AddTriangle.
func refAddTriangle(m *TriangleMesh, p0, p1, p2 [3]float32, s0, s1, s2 float32) {
	ux, uy, uz := p1[0]-p0[0], p1[1]-p0[1], p1[2]-p0[2]
	vx, vy, vz := p2[0]-p0[0], p2[1]-p0[1], p2[2]-p0[2]
	nx, ny, nz := uy*vz-uz*vy, uz*vx-ux*vz, ux*vy-uy*vx
	l := float32(math.Sqrt(float64(nx*nx + ny*ny + nz*nz)))
	if l > 0 {
		nx, ny, nz = nx/l, ny/l, nz/l
	}
	for _, p := range [][3]float32{p0, p1, p2} {
		m.Positions = append(m.Positions, p[0], p[1], p[2])
		m.Normals = append(m.Normals, nx, ny, nz)
	}
	m.Scalars = append(m.Scalars, s0, s1, s2)
}

// refIsosurface is the parent's Isosurface: every voxel's eight positions
// and indices are formed before the one-side reject.
func refIsosurface(img *ImageData, field string, iso float64) (*TriangleMesh, error) {
	arr, err := img.PointArray(field)
	if err != nil {
		return nil, err
	}
	mesh := &TriangleMesh{}
	isoF := float32(iso)
	nx, ny, nz := img.Dims[0], img.Dims[1], img.Dims[2]
	if nx < 2 || ny < 2 || nz < 2 {
		return mesh, nil
	}
	corners := [8][3]int{
		{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
	}
	tets := [6][4]int{
		{0, 5, 1, 6}, {0, 1, 2, 6}, {0, 2, 3, 6},
		{0, 3, 7, 6}, {0, 7, 4, 6}, {0, 4, 5, 6},
	}
	var pos [8][3]float32
	var val [8]float32
	for k := 0; k < nz-1; k++ {
		for j := 0; j < ny-1; j++ {
			for i := 0; i < nx-1; i++ {
				for c, off := range corners {
					idx := img.Index(i+off[0], j+off[1], k+off[2])
					v := arr.Data[idx]
					val[c] = v
					p := img.Point(i+off[0], j+off[1], k+off[2])
					pos[c] = [3]float32{float32(p[0]), float32(p[1]), float32(p[2])}
				}
				below, above := 0, 0
				for _, v := range val {
					if v < isoF {
						below++
					} else {
						above++
					}
				}
				if below == 8 || above == 8 {
					continue
				}
				for _, t := range tets {
					refMarchTetra(mesh,
						[4][3]float32{pos[t[0]], pos[t[1]], pos[t[2]], pos[t[3]]},
						[4]float32{val[t[0]], val[t[1]], val[t[2]], val[t[3]]},
						isoF)
				}
			}
		}
	}
	return mesh, nil
}

func refLerpEdge(pa, pb [3]float32, va, vb, iso float32) [3]float32 {
	d := vb - va
	t := float32(0.5)
	if d != 0 {
		t = (iso - va) / d
	}
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return [3]float32{
		pa[0] + t*(pb[0]-pa[0]),
		pa[1] + t*(pb[1]-pa[1]),
		pa[2] + t*(pb[2]-pa[2]),
	}
}

// refMarchTetra is the parent's marchTetra.
func refMarchTetra(mesh *TriangleMesh, p [4][3]float32, v [4]float32, iso float32) {
	var code int
	for i := 0; i < 4; i++ {
		if v[i] < iso {
			code |= 1 << i
		}
	}
	e := func(a, b int) [3]float32 { return refLerpEdge(p[a], p[b], v[a], v[b], iso) }
	tri := func(a, b, c [3]float32) { refAddTriangle(mesh, a, b, c, iso, iso, iso) }
	switch code {
	case 0x0, 0xF:
		return
	case 0x1, 0xE: // vertex 0 isolated
		tri(e(0, 1), e(0, 2), e(0, 3))
	case 0x2, 0xD: // vertex 1 isolated
		tri(e(1, 0), e(1, 3), e(1, 2))
	case 0x4, 0xB: // vertex 2 isolated
		tri(e(2, 0), e(2, 1), e(2, 3))
	case 0x8, 0x7: // vertex 3 isolated
		tri(e(3, 0), e(3, 2), e(3, 1))
	case 0x3, 0xC: // edge 0-1 inside (or outside)
		a, b, c, d := e(0, 2), e(0, 3), e(1, 3), e(1, 2)
		tri(a, b, c)
		tri(a, c, d)
	case 0x5, 0xA: // edge 0-2
		a, b, c, d := e(0, 1), e(2, 1), e(2, 3), e(0, 3)
		tri(a, b, c)
		tri(a, c, d)
	case 0x6, 0x9: // edge 1-2
		a, b, c, d := e(1, 0), e(2, 0), e(2, 3), e(1, 3)
		tri(a, b, c)
		tri(a, c, d)
	}
}

// refClipMesh is the parent's ClipMesh.
func refClipMesh(m *TriangleMesh, pl Plane) *TriangleMesh {
	out := &TriangleMesh{}
	nt := m.NumTriangles()
	for t := 0; t < nt; t++ {
		var p [3][3]float32
		var s [3]float32
		var d [3]float32
		for v := 0; v < 3; v++ {
			base := 9*t + 3*v
			p[v] = [3]float32{m.Positions[base], m.Positions[base+1], m.Positions[base+2]}
			s[v] = m.Scalars[3*t+v]
			d[v] = pl.Eval(p[v])
		}
		refClipTriangle(out, p, s, d)
	}
	return out
}

// refClipTriangle is the parent's clipTriangle.
func refClipTriangle(out *TriangleMesh, p [3][3]float32, s [3]float32, d [3]float32) {
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
		refAddTriangle(out, p[0], p[1], p[2], s[0], s[1], s[2])
		return
	}
	var poly [][3]float32
	var polyS []float32
	for i := 0; i < 3; i++ {
		j := (i + 1) % 3
		if d[i] >= 0 {
			poly = append(poly, p[i])
			polyS = append(polyS, s[i])
		}
		if (d[i] >= 0) != (d[j] >= 0) {
			t := d[i] / (d[i] - d[j])
			q := [3]float32{
				p[i][0] + t*(p[j][0]-p[i][0]),
				p[i][1] + t*(p[j][1]-p[i][1]),
				p[i][2] + t*(p[j][2]-p[i][2]),
			}
			poly = append(poly, q)
			polyS = append(polyS, s[i]+t*(s[j]-s[i]))
		}
	}
	for i := 2; i < len(poly); i++ {
		refAddTriangle(out, poly[0], poly[i-1], poly[i], polyS[0], polyS[i-1], polyS[i])
	}
}
