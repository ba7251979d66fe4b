package vtk

import "fmt"

// NotScalarError reports that a scalar filter was handed an array with
// more than one component per point.
type NotScalarError struct {
	Array      string
	Components int
}

func (e *NotScalarError) Error() string {
	return fmt.Sprintf("vtk: array %q has %d components, isosurface extraction needs a scalar", e.Array, e.Components)
}

// Cube corners are numbered (i,j,k), (i+1,j,k), (i+1,j+1,k), (i,j+1,k) and
// the same four at k+1; the six tetrahedra share the 0-6 diagonal.
var voxelTets = [6][4]uint8{
	{0, 5, 1, 6}, {0, 1, 2, 6}, {0, 2, 3, 6},
	{0, 3, 7, 6}, {0, 7, 4, 6}, {0, 4, 5, 6},
}

// tetCases lists, per sign code of a tetrahedron (bit i set when vertex i
// is below the isovalue), the edges whose crossings form its polygon: three
// for an isolated vertex, four for a separated edge pair (emitted as the
// fan 0-1-2, 0-2-3). Each edge is interpolated from its first vertex towards
// its second; the order is part of the output, bit for bit.
var tetCases = [16]struct {
	n     int
	edges [4][2]uint8
}{
	0x1: {3, [4][2]uint8{{0, 1}, {0, 2}, {0, 3}}},
	0xE: {3, [4][2]uint8{{0, 1}, {0, 2}, {0, 3}}},
	0x2: {3, [4][2]uint8{{1, 0}, {1, 3}, {1, 2}}},
	0xD: {3, [4][2]uint8{{1, 0}, {1, 3}, {1, 2}}},
	0x4: {3, [4][2]uint8{{2, 0}, {2, 1}, {2, 3}}},
	0xB: {3, [4][2]uint8{{2, 0}, {2, 1}, {2, 3}}},
	0x8: {3, [4][2]uint8{{3, 0}, {3, 2}, {3, 1}}},
	0x7: {3, [4][2]uint8{{3, 0}, {3, 2}, {3, 1}}},
	0x3: {4, [4][2]uint8{{0, 2}, {0, 3}, {1, 3}, {1, 2}}},
	0xC: {4, [4][2]uint8{{0, 2}, {0, 3}, {1, 3}, {1, 2}}},
	0x5: {4, [4][2]uint8{{0, 1}, {2, 1}, {2, 3}, {0, 3}}},
	0xA: {4, [4][2]uint8{{0, 1}, {2, 1}, {2, 3}, {0, 3}}},
	0x6: {4, [4][2]uint8{{1, 0}, {2, 0}, {2, 3}, {1, 3}}},
	0x9: {4, [4][2]uint8{{1, 0}, {2, 0}, {2, 3}, {1, 3}}},
}

// ExtractIsosurfaces appends to out the iso-valued surfaces of a scalar
// point field on a regular grid, one isovalue after the other, using
// marching tetrahedra: each voxel is split into six tetrahedra and each
// tetrahedron contributes up to two triangles. The result is topologically
// watertight across voxel and block boundaries (shared tetra faces
// interpolate identically), which is what the image-compositing step relies
// on when blocks are rendered on different staging servers.
//
// With a clip plane, every triangle is cut against it as it is emitted
// (clipTriangle), so out receives exactly what ClipMesh would keep of the
// unclipped surface, in the same order, and the unclipped surface is never
// stored. It is one sweep over the field per isovalue: a voxel is rejected
// on its eight samples before any position is formed, and so is a crossing
// voxel whose corner box lies wholly on the discarded side of the plane
// (planeBound.discarded), since clipTriangle would drop all it emits. The
// kept side is not short-cut: clipTriangle also drops triangles with NaN
// positions, which the unclipped surface keeps. Nothing is allocated beyond
// out's own growth — none once out has held a surface as large
// (TriangleMesh.Reset).
//
// The field must be a scalar: an array with Components != 1 is refused with
// a *NotScalarError rather than contoured through the wrong stride.
//
// The paper's pipelines run ParaView's contour filter; marching tetrahedra
// is the table-light equivalent with the same role: an embarrassingly
// parallel, computation-heavy surface extraction.
func ExtractIsosurfaces(out *TriangleMesh, img *ImageData, field string, isoValues []float64, clip *Plane) error {
	arr, err := img.PointArray(field)
	if err != nil {
		return err
	}
	if arr.Components != 1 {
		return &NotScalarError{Array: arr.Name, Components: arr.Components}
	}
	nx, ny, nz := img.Dims[0], img.Dims[1], img.Dims[2]
	if nx < 2 || ny < 2 || nz < 2 {
		return nil
	}
	data := arr.Data
	if len(data) != nx*ny*nz {
		return fmt.Errorf("vtk: array %q holds %d values for a grid of %d points", arr.Name, len(data), nx*ny*nz)
	}
	// World coordinates are formed the way ImageData.Point does, in
	// float64, then narrowed.
	coord := func(axis, i int) float32 {
		return float32(img.Origin[axis] + float64(i)*img.Spacing[axis])
	}
	var row planeBound // the clip plane over the voxel row's y and z extent
	for _, iso := range isoValues {
		isoF := float32(iso)
		for k := 0; k < nz-1; k++ {
			z0, z1 := coord(2, k), coord(2, k+1)
			for j := 0; j < ny-1; j++ {
				y0, y1 := coord(1, j), coord(1, j+1)
				if clip != nil {
					row = clip.bound().add(clip.Normal[1], y0, y1).add(clip.Normal[2], z0, z1)
				}
				// The voxel row's samples: rows (j,k), (j+1,k), (j,k+1),
				// (j+1,k+1).
				ra := data[(k*ny+j)*nx:][:nx]
				rb := data[(k*ny+j+1)*nx:][:nx]
				rc := data[((k+1)*ny+j)*nx:][:nx]
				rd := data[((k+1)*ny+j+1)*nx:][:nx]
				// The four samples at i+1 and their below-iso flags become
				// the next voxel's samples at i.
				a0, b0, c0, d0 := ra[0], rb[0], rc[0], rd[0]
				lo := belowMask(a0, b0, c0, d0, isoF)
				for i := 0; i < nx-1; i++ {
					a1, b1, c1, d1 := ra[i+1], rb[i+1], rc[i+1], rd[i+1]
					hi := belowMask(a1, b1, c1, d1, isoF)
					// With all eight samples on one side there is no crossing.
					if lo|hi != 0 && lo&hi != 0xF {
						x0, x1 := coord(0, i), coord(0, i+1)
						// Nothing of a voxel wholly on the discarded side survives the clip.
						if clip == nil || !row.add(clip.Normal[0], x0, x1).discarded() {
							pos := [8][3]float32{
								{x0, y0, z0}, {x1, y0, z0}, {x1, y1, z0}, {x0, y1, z0},
								{x0, y0, z1}, {x1, y0, z1}, {x1, y1, z1}, {x0, y1, z1},
							}
							val := [8]float32{a0, a1, b1, b0, c0, c1, d1, d0}
							marchVoxel(out, &pos, &val, isoF, clip)
						}
					}
					a0, b0, c0, d0, lo = a1, b1, c1, d1, hi
				}
			}
		}
	}
	return nil
}

// belowMask flags which of four samples lie below the isovalue (NaN does
// not).
func belowMask(a, b, c, d, iso float32) uint8 {
	var m uint8
	if a < iso {
		m |= 1
	}
	if b < iso {
		m |= 2
	}
	if c < iso {
		m |= 4
	}
	if d < iso {
		m |= 8
	}
	return m
}

// Isosurface extracts one isovalue's surface into a new mesh; see
// ExtractIsosurfaces.
func Isosurface(img *ImageData, field string, iso float64) (*TriangleMesh, error) {
	mesh := &TriangleMesh{}
	if err := ExtractIsosurfaces(mesh, img, field, []float64{iso}, nil); err != nil {
		return nil, err
	}
	return mesh, nil
}

// marchVoxel runs the tetrahedra of one voxel that the isosurface crosses.
func marchVoxel(out *TriangleMesh, pos *[8][3]float32, val *[8]float32, iso float32, clip *Plane) {
	for _, t := range voxelTets {
		v := [4]float32{val[t[0]], val[t[1]], val[t[2]], val[t[3]]}
		code := belowMask(v[0], v[1], v[2], v[3], iso)
		if code == 0 || code == 0xF {
			continue
		}
		p := [4][3]float32{pos[t[0]], pos[t[1]], pos[t[2]], pos[t[3]]}
		marchTetra(out, &p, &v, code, iso, clip)
	}
}

// lerpEdge interpolates the iso crossing between two tetra corners.
func lerpEdge(pa, pb [3]float32, va, vb, iso float32) [3]float32 {
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

// marchTetra emits the triangles of one tetrahedron with sign code `code`
// (belowMask of its vertices; not 0 or 0xF). Vertices with value below iso
// are "inside"; the 14 mixed cases reduce to one triangle or a quad split
// into two.
func marchTetra(out *TriangleMesh, p *[4][3]float32, v *[4]float32, code uint8, iso float32, clip *Plane) {
	tc := &tetCases[code]
	var q [4][3]float32
	for i := 0; i < tc.n; i++ {
		a, b := tc.edges[i][0], tc.edges[i][1]
		q[i] = lerpEdge(p[a], p[b], v[a], v[b], iso)
	}
	emitTriangle(out, q[0], q[1], q[2], iso, clip)
	if tc.n == 4 {
		emitTriangle(out, q[0], q[2], q[3], iso, clip)
	}
}

// emitTriangle appends one iso triangle, or what the clip plane keeps of
// it.
func emitTriangle(out *TriangleMesh, a, b, c [3]float32, iso float32, clip *Plane) {
	if clip == nil {
		out.AddTriangle(a, b, c, iso, iso, iso)
		return
	}
	clipTriangle(out, &[3][3]float32{a, b, c}, &[3]float32{iso, iso, iso}, clip)
}
