package sim

import (
	"math"

	"colza/internal/core"
	"colza/internal/vtk"
)

// MandelbulbConfig shapes the Mandelbulb miniapp, which stresses
// visualization pipelines with complex geometry (paper Sec. III-A). The
// global domain is a regular grid over [-1.2, 1.2]^3 partitioned along z
// into Blocks slabs; each client process owns several consecutive blocks.
type MandelbulbConfig struct {
	BlockDims [3]int  // grid points per block (x, y, z)
	Blocks    int     // total number of z-slabs
	Power     float64 // fractal power (8 is the classic bulb)
	MaxIter   int     // escape iteration cap (the scalar field)
}

// DefaultMandelbulb mirrors the paper's setup shape: cubic blocks, power
// 8.
func DefaultMandelbulb(blockDims [3]int, blocks int) MandelbulbConfig {
	return MandelbulbConfig{BlockDims: blockDims, Blocks: blocks, Power: 8, MaxIter: 32}
}

// mandelbulbEscape computes the escape iteration count for point c.
func mandelbulbEscape(cx, cy, cz, power float64, maxIter int) int {
	x, y, z := cx, cy, cz
	for it := 0; it < maxIter; it++ {
		r := math.Sqrt(x*x + y*y + z*z)
		if r > 2 {
			return it
		}
		theta := math.Acos(z / (r + 1e-12))
		phi := math.Atan2(y, x)
		rp := math.Pow(r, power)
		st := math.Sin(theta * power)
		x = rp*st*math.Cos(phi*power) + cx
		y = rp*st*math.Sin(phi*power) + cy
		z = rp*math.Cos(theta*power) + cz
	}
	return maxIter
}

// MandelbulbBlock generates block blockID of the decomposed domain at a
// given iteration. The iteration slowly rotates/scales the fractal (the
// time axis of the animation), so the workload is stable but not static.
func MandelbulbBlock(cfg MandelbulbConfig, blockID int, iteration uint64) *vtk.ImageData {
	const lo, hi = -1.2, 1.2
	bd := cfg.BlockDims
	nz := bd[2]
	// World-space extent of one block along z.
	zSpan := (hi - lo) / float64(cfg.Blocks)
	spacing := [3]float64{
		(hi - lo) / float64(bd[0]-1),
		(hi - lo) / float64(bd[1]-1),
		zSpan / float64(nz-1),
	}
	origin := [3]float64{lo, lo, lo + zSpan*float64(blockID)}
	img := vtk.NewImageData(bd, origin, spacing)
	arr := img.AddPointArray("value", 1)
	// The time axis scales the domain slightly so isosurfaces evolve.
	scale := 1 + 0.02*math.Sin(float64(iteration)*0.3)
	for k := 0; k < nz; k++ {
		for j := 0; j < bd[1]; j++ {
			for i := 0; i < bd[0]; i++ {
				p := img.Point(i, j, k)
				v := mandelbulbEscape(p[0]*scale, p[1]*scale, p[2]*scale, cfg.Power, cfg.MaxIter)
				arr.Data[img.Index(i, j, k)] = float32(v)
			}
		}
	}
	return img
}

// MandelbulbMeta builds the staging metadata for a block.
func MandelbulbMeta(cfg MandelbulbConfig, blockID int) core.BlockMeta {
	return core.BlockMeta{
		Field:   "value",
		BlockID: blockID,
		Type:    "imagedata",
		Dims:    cfg.BlockDims,
	}
}
