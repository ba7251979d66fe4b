package sim

import (
	"math"
	"sync"
	"testing"

	"colza/internal/minimpi"
	"colza/internal/vtk"
)

func TestGrayScottSingleRankConservesSanity(t *testing.T) {
	g := NewGrayScott(nil, [3]int{16, 16, 16}, DefaultGrayScott())
	if err := g.Step(10); err != nil {
		t.Fatal(err)
	}
	blk := g.Block()
	if blk.Dims != [3]int{16, 16, 16} {
		t.Fatalf("dims = %v", blk.Dims)
	}
	u, err := blk.PointArray("U")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := blk.PointArray("V")
	// Fields must stay finite and inside a loose physical range.
	for i := range u.Data {
		if math.IsNaN(float64(u.Data[i])) || u.Data[i] < -0.5 || u.Data[i] > 1.5 {
			t.Fatalf("U[%d] = %f diverged", i, u.Data[i])
		}
		if math.IsNaN(float64(v.Data[i])) || v.Data[i] < -0.5 || v.Data[i] > 1.5 {
			t.Fatalf("V[%d] = %f diverged", i, v.Data[i])
		}
	}
	// The reaction must actually produce structure: V nonzero somewhere.
	_, vmax := v.Range()
	if vmax <= 0 {
		t.Fatal("V stayed identically zero; seeding broken")
	}
}

// Long runs on larger grids must stay numerically stable (the explicit
// scheme must respect the diffusion CFL limit).
func TestGrayScottLongRunStable(t *testing.T) {
	g := NewGrayScott(nil, [3]int{48, 48, 48}, DefaultGrayScott())
	if err := g.Step(250); err != nil {
		t.Fatal(err)
	}
	v, _ := g.Block().PointArray("V")
	lo, hi := v.Range()
	if math.IsNaN(float64(lo)) || math.IsInf(float64(lo), 0) || math.IsInf(float64(hi), 0) {
		t.Fatalf("V diverged: range [%f, %f]", lo, hi)
	}
	if lo < -0.2 || hi > 1.2 {
		t.Fatalf("V outside physical range: [%f, %f]", lo, hi)
	}
	if hi < 0.1 {
		t.Fatalf("pattern died out: V max %f", hi)
	}
}

// The parallel solver must agree with the serial solver for every tested
// decomposition — the 3D Cartesian halo exchange is only correct if this
// holds for z-splits (2), prime counts (3), and true 3D grids (8 = 2x2x2).
func TestGrayScottParallelMatchesSerial(t *testing.T) {
	global := [3]int{12, 12, 12}
	p := DefaultGrayScott()
	serial := NewGrayScott(nil, global, p)
	if err := serial.Step(5); err != nil {
		t.Fatal(err)
	}
	want, _ := serial.Block().PointArray("V")

	for _, nr := range []int{2, 3, 4, 8} {
		world := minimpi.World(nr)
		solvers := make([]*GrayScott, nr)
		var wg sync.WaitGroup
		errs := make([]error, nr)
		for r := 0; r < nr; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				solvers[r] = NewGrayScott(world[r], global, p)
				errs[r] = solvers[r].Step(5)
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// Stitch the V field back together by global offsets and compare.
		got := make([]float32, global[0]*global[1]*global[2])
		for r := 0; r < nr; r++ {
			blk := solvers[r].Block()
			arr, _ := blk.PointArray("V")
			off, dims := solvers[r].offset, solvers[r].local
			for z := 0; z < dims[2]; z++ {
				for y := 0; y < dims[1]; y++ {
					for x := 0; x < dims[0]; x++ {
						gi := (off[0] + x) + global[0]*((off[1]+y)+global[1]*(off[2]+z))
						got[gi] = arr.Data[blk.Index(x, y, z)]
					}
				}
			}
		}
		world[0].Finalize()
		for i := range got {
			if math.Abs(float64(got[i]-want.Data[i])) > 1e-5 {
				t.Fatalf("nr=%d: V[%d] = %f, serial %f", nr, i, got[i], want.Data[i])
			}
		}
	}
}

// Every decomposition must tile the domain exactly: offsets + local dims
// cover each cell once.
func TestGrayScottPartitionCoversDomain(t *testing.T) {
	for _, nr := range []int{2, 5, 6, 8} {
		world := minimpi.World(nr)
		global := [3]int{8, 8, 17}
		covered := make([]int, global[0]*global[1]*global[2])
		for r := 0; r < nr; r++ {
			g := NewGrayScott(world[r], global, DefaultGrayScott())
			d, off, pd := g.local, g.offset, g.pdims
			if pd[0]*pd[1]*pd[2] != nr {
				t.Fatalf("nr=%d: process grid %v", nr, pd)
			}
			for z := 0; z < d[2]; z++ {
				for y := 0; y < d[1]; y++ {
					for x := 0; x < d[0]; x++ {
						covered[(off[0]+x)+global[0]*((off[1]+y)+global[1]*(off[2]+z))]++
					}
				}
			}
		}
		world[0].Finalize()
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("nr=%d: cell %d covered %d times", nr, i, c)
			}
		}
	}
}

func TestMandelbulbBlockFieldShape(t *testing.T) {
	cfg := DefaultMandelbulb([3]int{16, 16, 8}, 4)
	blk := MandelbulbBlock(cfg, 0, 1)
	arr, err := blk.PointArray("value")
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := arr.Range()
	if lo < 0 || hi > float32(cfg.MaxIter) {
		t.Fatalf("range (%f, %f) outside [0, %d]", lo, hi, cfg.MaxIter)
	}
	if lo == hi {
		t.Fatal("field is constant; fractal evaluation broken")
	}
	// Points inside the bulb (near origin) never escape.
	if v := mandelbulbEscape(0, 0, 0, 8, 32); v != 32 {
		t.Fatalf("origin escapes after %d iterations", v)
	}
	// Far points escape immediately-ish.
	if v := mandelbulbEscape(3, 0, 0, 8, 32); v > 2 {
		t.Fatalf("far point held on for %d iterations", v)
	}
	if meta := MandelbulbMeta(cfg, 7); meta.BlockID != 7 || meta.Type != "imagedata" {
		t.Fatalf("meta = %+v", meta)
	}
}

func TestMandelbulbBlocksTileTheDomain(t *testing.T) {
	cfg := DefaultMandelbulb([3]int{8, 8, 8}, 4)
	prevTop := math.Inf(-1)
	for b := 0; b < 4; b++ {
		blk := MandelbulbBlock(cfg, b, 1)
		z0 := blk.Origin[2]
		if z0 < prevTop-1e-9 {
			t.Fatalf("block %d starts below previous block top", b)
		}
		prevTop = z0
	}
	// Iteration dependence: different iterations give different fields.
	a, _ := MandelbulbBlock(cfg, 0, 1).PointArray("value")
	b, _ := MandelbulbBlock(cfg, 0, 5).PointArray("value")
	same := true
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("iterations 1 and 5 produced identical fields")
	}
}

func TestDWIGrowthIsMonotonic(t *testing.T) {
	cfg := DWIConfig{Blocks: 8, Iterations: 10, BaseRes: 12, GrowthRes: 2}
	rows := DWIGrowth(cfg)
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	grewCells := 0
	for i := 1; i < len(rows); i++ {
		if rows[i].Cells > rows[i-1].Cells {
			grewCells++
		}
	}
	// The paper's Fig. 1a shows overall growth; require most steps to grow
	// and the final iteration to dwarf the first.
	if grewCells < 7 {
		t.Fatalf("cells grew on only %d/9 steps", grewCells)
	}
	if rows[len(rows)-1].Cells < 3*rows[0].Cells {
		t.Fatalf("final cells %d not >> initial %d", rows[len(rows)-1].Cells, rows[0].Cells)
	}
	if rows[len(rows)-1].FileBytes <= rows[0].FileBytes {
		t.Fatal("file size did not grow")
	}
}

func TestDWIBlocksPartitionAndData(t *testing.T) {
	cfg := DWIConfig{Blocks: 4, Iterations: 10, BaseRes: 16, GrowthRes: 1}
	totalCells := 0
	for b := 0; b < cfg.Blocks; b++ {
		g := DWIIterationBlock(cfg, 5, b)
		totalCells += g.NumCells()
		vel, err := g.CellArray("velocity")
		if err != nil {
			t.Fatal(err)
		}
		if vel.NumTuples() != g.NumCells() {
			t.Fatalf("block %d: %d velocities for %d cells", b, vel.NumTuples(), g.NumCells())
		}
		// Round-trips through the staging codec.
		dec, err := vtk.DecodeUnstructuredGrid(g.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if dec.NumCells() != g.NumCells() {
			t.Fatal("codec lost cells")
		}
	}
	if totalCells == 0 {
		t.Fatal("iteration 5 produced no cells at all")
	}
}

func TestDWIDeterministic(t *testing.T) {
	cfg := DefaultDWI()
	a := DWIIterationBlock(cfg, 7, 3)
	b := DWIIterationBlock(cfg, 7, 3)
	if a.NumCells() != b.NumCells() || a.NumPoints() != b.NumPoints() {
		t.Fatal("generator not deterministic")
	}
}
