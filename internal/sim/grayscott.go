// Package sim implements the three data sources the Colza paper evaluates
// with: the Gray-Scott reaction-diffusion simulation, the Mandelbulb
// miniapp, and a proxy for the Deep Water Impact ensemble (the dataset is
// not redistributable, so a synthetic unstructured-mesh generator with the
// same growth behaviour stands in for it — see DESIGN.md, substitution 4).
package sim

import (
	"encoding/binary"
	"math"

	"colza/internal/comm"
	"colza/internal/vtk"
)

// GrayScottParams are the reaction-diffusion constants. The defaults
// produce the mitosis-like patterns of the paper's Figure 3a.
type GrayScottParams struct {
	Du, Dv float64 // diffusion rates
	F, K   float64 // feed / kill
	Dt     float64
	Noise  float64
	Seed   int64
}

// DefaultGrayScott returns a parameter set in the mitosis regime. The
// diffusion rates are chosen inside the explicit-Euler stability limit
// for the 3D seven-point Laplacian (dt * 6 * Du < 1).
func DefaultGrayScott() GrayScottParams {
	return GrayScottParams{Du: 0.12, Dv: 0.06, F: 0.02, K: 0.05, Dt: 1.0, Noise: 0.01, Seed: 7}
}

// GrayScott is one rank's share of a 3D Gray-Scott solver. As in the
// paper, the global domain is a regular grid with a *three-dimensional
// Cartesian partitioning* across the communicator's ranks (nil
// communicator = one rank owns everything); each step exchanges
// one-cell-deep face halos with up to six neighbours — a real parallel
// stencil simulation, not a data generator.
type GrayScott struct {
	c      comm.Communicator
	params GrayScottParams

	global [3]int
	pdims  [3]int // process grid
	coords [3]int // this rank's coordinates in the process grid
	local  [3]int // interior cells owned per axis
	offset [3]int // global index of the first interior cell per axis

	// Arrays are sized (local+2)^3 with one ghost layer on every face.
	u, v       []float32
	bufU, bufV []float32
	generation int
}

// dimsCreate factors size into a process grid minimizing halo surface
// for the given global domain (the MPI_Dims_create role).
func dimsCreate(size int, global [3]int) [3]int {
	best := [3]int{size, 1, 1}
	bestScore := math.Inf(1)
	for px := 1; px <= size; px++ {
		if size%px != 0 {
			continue
		}
		rem := size / px
		for py := 1; py <= rem; py++ {
			if rem%py != 0 {
				continue
			}
			pz := rem / py
			if px > global[0] || py > global[1] || pz > global[2] {
				continue
			}
			// Surface-to-volume of the local block: lower = less halo.
			lx := float64(global[0]) / float64(px)
			ly := float64(global[1]) / float64(py)
			lz := float64(global[2]) / float64(pz)
			score := lx*ly + ly*lz + lx*lz
			if score < bestScore {
				bestScore = score
				best = [3]int{px, py, pz}
			}
		}
	}
	return best
}

// axisRange splits n cells across p ranks, giving rank r its count and
// offset (remainder spread over the first ranks).
func axisRange(n, p, r int) (count, offset int) {
	base := n / p
	rem := n % p
	count = base
	if r < rem {
		count++
	}
	offset = r*base + min(r, rem)
	return
}

// NewGrayScott creates the local portion of a global nx*ny*nz domain.
func NewGrayScott(c comm.Communicator, global [3]int, p GrayScottParams) *GrayScott {
	rank, size := 0, 1
	if c != nil {
		rank, size = c.Rank(), c.Size()
	}
	g := &GrayScott{c: c, params: p, global: global}
	g.pdims = dimsCreate(size, global)
	// Rank -> coordinates, x-fastest.
	g.coords[0] = rank % g.pdims[0]
	g.coords[1] = (rank / g.pdims[0]) % g.pdims[1]
	g.coords[2] = rank / (g.pdims[0] * g.pdims[1])
	for a := 0; a < 3; a++ {
		g.local[a], g.offset[a] = axisRange(global[a], g.pdims[a], g.coords[a])
	}
	n := (g.local[0] + 2) * (g.local[1] + 2) * (g.local[2] + 2)
	g.u = make([]float32, n)
	g.v = make([]float32, n)
	g.bufU = make([]float32, n)
	g.bufV = make([]float32, n)
	g.seed()
	return g
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// idx addresses (x, y, z) including ghosts (0 = low ghost layer).
func (g *GrayScott) idx(x, y, z int) int {
	sx := g.local[0] + 2
	sy := g.local[1] + 2
	return x + sx*(y+sy*z)
}

// rankAt returns the rank at process coordinates, or -1 outside the grid.
func (g *GrayScott) rankAt(cx, cy, cz int) int {
	if cx < 0 || cy < 0 || cz < 0 || cx >= g.pdims[0] || cy >= g.pdims[1] || cz >= g.pdims[2] {
		return -1
	}
	return cx + g.pdims[0]*(cy+g.pdims[1]*cz)
}

// seed initializes U=1, V=0, with a perturbed cube at the domain center.
// Noise is a pure function of global coordinates so any decomposition
// yields the identical initial condition.
func (g *GrayScott) seed() {
	for i := range g.u {
		g.u[i] = 1
		g.v[i] = 0
	}
	noiseAt := func(gx, gy, gz int) float64 {
		h := uint64(g.params.Seed)*0x9E3779B97F4A7C15 + uint64(gx) + uint64(gy)<<20 + uint64(gz)<<40
		h ^= h >> 33
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 33
		h *= 0xC4CEB9FE1A85EC53
		h ^= h >> 33
		return float64(h>>11) / float64(1<<53)
	}
	cx, cy, cz := g.global[0]/2, g.global[1]/2, g.global[2]/2
	r := g.global[0] / 8
	if r < 2 {
		r = 2
	}
	for z := 0; z < g.local[2]; z++ {
		gz := g.offset[2] + z
		for y := 0; y < g.local[1]; y++ {
			gy := g.offset[1] + y
			for x := 0; x < g.local[0]; x++ {
				gx := g.offset[0] + x
				noise := g.params.Noise * (noiseAt(gx, gy, gz) - 0.5)
				i := g.idx(x+1, y+1, z+1)
				if abs(gx-cx) <= r && abs(gy-cy) <= r && abs(gz-cz) <= r {
					g.u[i] = 0.25 + float32(noise)
					g.v[i] = 0.5 + float32(noise)
				} else if noise > g.params.Noise*0.45 {
					g.v[i] = float32(noise)
				}
			}
		}
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

const haloTag = 4200

// face describes one of the six halo faces: the axis and the direction.
type face struct {
	axis int
	dir  int // -1 = low neighbour, +1 = high neighbour
}

// faces pairs opposite directions adjacently so face fi's matching
// neighbour face is fi^1.
var faces = [6]face{
	{0, -1}, {0, +1}, {1, -1}, {1, +1}, {2, -1}, {2, +1},
}

// planeExtents returns the two in-plane interior extents for an axis.
func (g *GrayScott) planeExtents(axis int) (int, int) {
	switch axis {
	case 0:
		return g.local[1], g.local[2]
	case 1:
		return g.local[0], g.local[2]
	default:
		return g.local[0], g.local[1]
	}
}

// planeIdx maps in-plane interior coordinates (a, b, both 1-based) to the
// array index on the axis-aligned plane at the given axis index.
func (g *GrayScott) planeIdx(axis, plane, a, b int) int {
	switch axis {
	case 0:
		return g.idx(plane, a, b)
	case 1:
		return g.idx(a, plane, b)
	default:
		return g.idx(a, b, plane)
	}
}

// packPlane copies the plane at index `plane` along `axis` into a flat
// buffer (strided gather for x/y faces).
func (g *GrayScott) packPlane(field []float32, axis, plane int) []float32 {
	d1, d2 := g.planeExtents(axis)
	out := make([]float32, d1*d2)
	k := 0
	for b := 1; b <= d2; b++ {
		for a := 1; a <= d1; a++ {
			out[k] = field[g.planeIdx(axis, plane, a, b)]
			k++
		}
	}
	return out
}

// unpackPlane writes a flat buffer into the plane at index `plane`.
func (g *GrayScott) unpackPlane(field []float32, axis, plane int, data []float32) {
	d1, d2 := g.planeExtents(axis)
	k := 0
	for b := 1; b <= d2; b++ {
		for a := 1; a <= d1; a++ {
			field[g.planeIdx(axis, plane, a, b)] = data[k]
			k++
		}
	}
}

// exchangeHalos fills the six ghost faces from the neighbours (clamped
// Neumann boundaries at the domain edges). All sends go out first (sends
// complete locally on this transport), then the receives drain.
func (g *GrayScott) exchangeHalos(field []float32) error {
	neighbour := func(f face) int {
		if g.c == nil {
			return -1
		}
		nc := g.coords
		nc[f.axis] += f.dir
		return g.rankAt(nc[0], nc[1], nc[2])
	}
	for fi, f := range faces {
		interiorPlane := 1
		ghostPlane := 0
		if f.dir > 0 {
			interiorPlane = g.local[f.axis]
			ghostPlane = g.local[f.axis] + 1
		}
		nb := neighbour(f)
		if nb < 0 {
			// Domain boundary: ghost = own boundary plane (Neumann).
			g.unpackPlane(field, f.axis, ghostPlane, g.packPlane(field, f.axis, interiorPlane))
			continue
		}
		tag := haloTag + (g.generation%2)*16 + fi
		if err := g.c.Send(nb, tag, encodeF32(g.packPlane(field, f.axis, interiorPlane))); err != nil {
			return err
		}
	}
	for fi, f := range faces {
		nb := neighbour(f)
		if nb < 0 {
			continue
		}
		ghostPlane := 0
		if f.dir > 0 {
			ghostPlane = g.local[f.axis] + 1
		}
		// The neighbour sent from its opposite face, tag fi^1.
		oppTag := haloTag + (g.generation%2)*16 + (fi ^ 1)
		raw, err := g.c.Recv(nb, oppTag)
		if err != nil {
			return err
		}
		g.unpackPlane(field, f.axis, ghostPlane, decodeF32(raw))
	}
	return nil
}

func encodeF32(src []float32) []byte {
	out := make([]byte, 4*len(src))
	for i, f := range src {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(f))
	}
	return out
}

func decodeF32(raw []byte) []float32 {
	out := make([]float32, len(raw)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// Step advances the simulation n timesteps.
func (g *GrayScott) Step(n int) error {
	p := g.params
	for s := 0; s < n; s++ {
		for _, field := range [][]float32{g.u, g.v} {
			if err := g.exchangeHalos(field); err != nil {
				return err
			}
		}
		g.stepOnce(float32(p.Du), float32(p.Dv), float32(p.F), float32(p.K), float32(p.Dt))
		g.generation++
	}
	return nil
}

// stepOnce applies one explicit Euler update of the Gray-Scott PDEs.
// Jacobi update into double buffers: the new fields are computed entirely
// from the old ones, so results are identical under any decomposition.
func (g *GrayScott) stepOnce(du, dv, f, k, dt float32) {
	sx := g.local[0] + 2
	sy := g.local[1] + 2
	strideY := sx
	strideZ := sx * sy
	lap := func(field []float32, i int) float32 {
		return field[i-1] + field[i+1] + field[i-strideY] + field[i+strideY] +
			field[i-strideZ] + field[i+strideZ] - 6*field[i]
	}
	newU, newV := g.bufU, g.bufV
	for z := 1; z <= g.local[2]; z++ {
		for y := 1; y <= g.local[1]; y++ {
			row := g.idx(1, y, z)
			for x := 0; x < g.local[0]; x++ {
				i := row + x
				u, v := g.u[i], g.v[i]
				uvv := u * v * v
				newU[i] = u + dt*(du*lap(g.u, i)-uvv+f*(1-u))
				newV[i] = v + dt*(dv*lap(g.v, i)+uvv-(f+k)*v)
			}
		}
	}
	g.u, g.bufU = newU, g.u
	g.v, g.bufV = newV, g.v
}

// Block exports this rank's interior as an ImageData with the U and V
// point fields, positioned at its global offsets.
func (g *GrayScott) Block() *vtk.ImageData {
	img := vtk.NewImageData(
		g.local,
		[3]float64{float64(g.offset[0]), float64(g.offset[1]), float64(g.offset[2])},
		[3]float64{1, 1, 1})
	au := img.AddPointArray("U", 1)
	av := img.AddPointArray("V", 1)
	i := 0
	for z := 1; z <= g.local[2]; z++ {
		for y := 1; y <= g.local[1]; y++ {
			for x := 1; x <= g.local[0]; x++ {
				src := g.idx(x, y, z)
				au.Data[i] = g.u[src]
				av.Data[i] = g.v[src]
				i++
			}
		}
	}
	return img
}
