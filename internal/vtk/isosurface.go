package vtk

import (
	"fmt"
	"slices"
)

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

// voxelCase is what a crossed voxel emits for one sign pattern of its
// corners: the directed edges whose iso crossings its triangles use, each
// listed once, and the triangles as triples of indices into that list —
// exactly the triangles, edge directions and order that marching its six
// tetrahedra one by one (voxelTets, tetCases) gives.
type voxelCase struct {
	nEdges, nTris uint8
	edges         [16][2]uint8 // corner pairs, interpolated from the first towards the second
	tris          [12][3]uint8
}

// voxelCases is indexed by lo | hi<<4, the sweep's belowMask words of a
// voxel's low-x and high-x samples: bits 0-3 flag corners 0, 3, 4, 7 below
// the isovalue, bits 4-7 corners 1, 2, 5, 6.
var voxelCases = func() (cases [256]voxelCase) {
	corners := [8]uint8{0, 3, 4, 7, 1, 2, 5, 6} // code bit → corner
	for code := range cases {
		var below [8]bool
		for b, corner := range corners {
			below[corner] = code>>b&1 != 0
		}
		vc := &cases[code]
		for _, t := range voxelTets {
			tcode := 0
			for i, corner := range t {
				if below[corner] {
					tcode |= 1 << i
				}
			}
			tc := &tetCases[tcode]
			var q [4]uint8 // indices of the tetrahedron's crossings in vc.edges
			for i, e := range tc.edges[:tc.n] {
				edge := [2]uint8{t[e[0]], t[e[1]]}
				j := slices.Index(vc.edges[:vc.nEdges], edge)
				if j < 0 { // the edge's first use
					j = int(vc.nEdges)
					vc.edges[j] = edge
					vc.nEdges++
				}
				q[i] = uint8(j)
			}
			for i := 2; i < tc.n; i++ {
				vc.tris[vc.nTris] = [3]uint8{q[0], q[i-1], q[i]}
				vc.nTris++
			}
		}
	}
	return cases
}()

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
// (planeBound.discarded), since clipTriangle would drop all it emits. A
// tame crossing voxel wholly on the kept side skips clipTriangle, which
// would keep all it emits (voxelClip.voxel). A crossed voxel's triangles
// come from voxelCases, which lists what its six tetrahedra emit with each
// shared crossing interpolated once. Nothing is allocated beyond out's own
// growth — none once out has held a surface as large (TriangleMesh.Reset).
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
	// vc classifies a crossing voxel against the clip plane, row by row;
	// crossings is marchVoxel's scratch, zeroed once here, not per voxel.
	vc := voxelClip{clip: clip}
	var crossings [16][3]float32
	for _, iso := range isoValues {
		isoF := float32(iso)
		for k := 0; k < nz-1; k++ {
			z0, z1 := coord(2, k), coord(2, k+1)
			for j := 0; j < ny-1; j++ {
				y0, y1 := coord(1, j), coord(1, j+1)
				if clip != nil {
					vc.setRow(isoF, y0, y1, z0, z1)
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
						val := [8]float32{a0, a1, b1, b0, c0, c1, d1, d0}
						if pl, skip := vc.voxel(x0, x1, &val); !skip {
							pos := [8][3]float32{
								{x0, y0, z0}, {x1, y0, z0}, {x1, y1, z0}, {x0, y1, z0},
								{x0, y0, z1}, {x1, y0, z1}, {x1, y1, z1}, {x0, y1, z1},
							}
							marchVoxel(out, &voxelCases[lo|hi<<4], &pos, &val, isoF, pl, &crossings)
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

// voxelClip decides, for one crossing voxel at a time, what the clip
// plane does to its triangles. A nil clip passes every voxel through
// unclipped.
type voxelClip struct {
	clip *Plane
	row  planeBound // the plane over the voxel row's y and z extent
	tame bool       // the isovalue and the row's y and z corners are tame
}

// setRow bounds the plane over the voxel row [y0, y1] × [z0, z1] and
// checks the row's part of tameness.
func (vc *voxelClip) setRow(iso, y0, y1, z0, z1 float32) {
	n := vc.clip.Normal
	vc.row = vc.clip.bound().add(n[1], y0, y1).add(n[2], z0, z1)
	vc.tame = tame(iso) && tame(y0) && tame(y1) && tame(z0) && tame(z1)
}

// voxel returns the plane a crossing voxel's triangles are cut against
// (nil: none) and whether the voxel can be skipped outright. Nothing of a
// voxel wholly on the discarded side survives the clip. All of one wholly
// on the kept side survives as emitted — provided no vertex it emits is
// NaN, which only a tame voxel guarantees: clipTriangle drops a triangle
// with three NaN vertices and re-cuts one with one or two.
func (vc *voxelClip) voxel(x0, x1 float32, val *[8]float32) (pl *Plane, skip bool) {
	if vc.clip == nil {
		return nil, false
	}
	b := vc.row.add(vc.clip.Normal[0], x0, x1)
	switch {
	case b.discarded():
		return nil, true
	case b.kept() && vc.tame && tame(x0) && tame(x1) && tameSamples(val):
		return nil, false
	}
	return vc.clip, false
}

// tame reports that |v| < 2^126, which NaN and ±Inf are not. On a voxel
// whose samples, isovalue and corner coordinates are all tame no
// lerpEdge result is NaN: the crossed edge's samples straddle the
// isovalue, so iso − va and vb − va stay finite and t lands in [0, 1],
// and pb − pa and pa + t·(pb − pa) stay below 2^128.
func tame(v float32) bool { return v > -0x1p126 && v < 0x1p126 }

func tameSamples(val *[8]float32) bool {
	for _, v := range val {
		if !tame(v) {
			return false
		}
	}
	return true
}

// marchVoxel emits the triangles of one voxel that the isosurface crosses,
// as marching its six tetrahedra would (c lists them for the voxel's
// signs): each crossing is interpolated once into q, straight from the
// voxel's corners, however many tetrahedra share its edge. A nil clip
// appends the triangles as they are.
func marchVoxel(out *TriangleMesh, c *voxelCase, pos *[8][3]float32, val *[8]float32, iso float32, clip *Plane, q *[16][3]float32) {
	for i, e := range c.edges[:c.nEdges] {
		q[i] = lerpEdge(&pos[e[0]], &pos[e[1]], val[e[0]], val[e[1]], iso)
	}
	tris := c.tris[:c.nTris]
	if clip == nil {
		for _, t := range tris {
			out.AddTriangle(q[t[0]], q[t[1]], q[t[2]], iso, iso, iso)
		}
		return
	}
	for _, t := range tris {
		clipTriangle(out, &[3][3]float32{q[t[0]], q[t[1]], q[t[2]]}, &[3]float32{iso, iso, iso}, clip)
	}
}

// lerpEdge interpolates the iso crossing between two tetra corners.
func lerpEdge(pa, pb *[3]float32, va, vb, iso float32) [3]float32 {
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
