package vtk

// crossingBits sizes the crossing table: 2^13 slots of 16 bytes, 128 KiB
// whatever the block. A 64³ block's crossings are reused within about one
// plane of voxels (a few hundred to a few thousand per isovalue), which
// this holds with few collisions; a block with a far larger plane only
// collides more.
const crossingBits = 13

// crossingTable remembers, for the block and isovalue being contoured,
// which vertex each crossed directed lattice edge was interpolated into,
// so that every later voxel using that edge in that direction refers to the
// same vertex instead of interpolating and storing it again.
//
// It is direct-mapped: a key hashes to one slot, and a new crossing evicts
// whatever sits there. A slot holds its full key, so a lookup never hits
// another edge's vertex; an evicted crossing only costs a second vertex of
// the same bits. A slot is valid only for the generation that wrote it, and
// every (block, isovalue) pass takes a new generation (next), so nothing
// written for an earlier block, isovalue or execute — nor before the mesh
// was Reset — is ever found.
type crossingTable struct {
	gen   uint32
	slots [1 << crossingBits]crossingSlot
}

type crossingSlot struct {
	key  uint64 // the directed key (edgeKey)
	gen  uint32
	vert uint32
}

// next starts a generation. When the counter wraps, every slot is cleared
// first, so that a slot of the generation last numbered alike cannot pass.
func (t *crossingTable) next() uint32 {
	t.gen++
	if t.gen == 0 {
		t.slots = [len(t.slots)]crossingSlot{}
		t.gen = 1
	}
	return t.gen
}

// slot returns the one slot key may occupy (Fibonacci hashing: the top
// bits of the key times 2^64/φ).
func (t *crossingTable) slot(key uint64) *crossingSlot {
	return &t.slots[(key*0x9E3779B97F4A7C15)>>(64-crossingBits)]
}

// A lattice edge of the six-tetrahedron split joins a grid point to its
// neighbour one step up along x, y, z, or along a face or body diagonal
// with positive steps — xy, xz, yz, xyz: seven directions. Its directed key
// is its lower point's index in the block, its direction and which end the
// crossing is interpolated from (lerpEdge(a, b) and lerpEdge(b, a) round
// differently): point<<4 | dir<<1 | reversed. A point index is below the
// length of the field held in memory, far below 2^60, so no two edges share
// a key.
type edgeKey struct {
	lower uint8 // the voxel corner at the lower end of the edge
	code  uint8 // dir<<1 | reversed
}

// voxelCorners gives each voxel corner's (di, dj, dk) offset from the
// voxel's lower corner, in the numbering of voxelTets.
var voxelCorners = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
}

// keyOf returns the directed key of the voxel edge interpolated from
// corner a towards corner b.
func keyOf(a, b uint8) edgeKey {
	pa, pb := voxelCorners[a], voxelCorners[b]
	lower, reversed := a, uint8(0)
	if pb[0] < pa[0] || pb[1] < pa[1] || pb[2] < pa[2] {
		pa, pb = pb, pa
		lower, reversed = b, 1
	}
	dir := 0
	for axis := range pa {
		switch pb[axis] - pa[axis] {
		case 0:
		case 1:
			dir |= 1 << axis
		default:
			panic("vtk: a tetrahedron edge steps down along one axis and up along another")
		}
	}
	return edgeKey{lower: lower, code: uint8(dir-1)<<1 | reversed}
}

// edgeShares reports whether a voxel before the current one in sweep order
// (x fastest, then y, then z) also has the voxel edge between corners a
// and b, and whether one after it does. Among the neighbours sharing an
// edge, all split their faces alike (the diagonal from the face's lowest
// corner), so having both ends is having the edge.
func edgeShares(a, b uint8) (earlier, later bool) {
	pa, pb := voxelCorners[a], voxelCorners[b]
	for dk := -1; dk <= 1; dk++ {
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				o := [3]int{di, dj, dk}
				if o == [3]int{} || !inVoxel(pa, o) || !inVoxel(pb, o) {
					continue
				}
				if dk < 0 || dk == 0 && (dj < 0 || dj == 0 && di < 0) {
					earlier = true
				} else {
					later = true
				}
			}
		}
	}
	return earlier, later
}

// inVoxel reports whether corner offset p lies in the voxel offset by o.
func inVoxel(p, o [3]int) bool {
	for axis := range p {
		if d := p[axis] - o[axis]; d < 0 || d > 1 {
			return false
		}
	}
	return true
}

// cornerOffsets returns each voxel corner's point-index offset from the
// voxel's lower corner in a block of nx × ny points per plane.
func cornerOffsets(nx, ny int) (off [8]int) {
	for c, d := range voxelCorners {
		off[c] = d[0] + nx*(d[1]+ny*d[2])
	}
	return off
}
