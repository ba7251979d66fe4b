package bench

import (
	"testing"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/minimpi"
	"colza/internal/sim"
	"colza/internal/vtk"
)

// BenchmarkComputeCost measures the per-unit constants of isoCost,
// volumeCost and warmupSecPerKiB on this host from single-rank runs of the
// pipeline bodies on full-size figure inputs (DESIGN.md §2, substitution 7,
// records the reference box's numbers):
//
//	go test -run '^$' -bench ComputeCost -benchtime 20x ./internal/bench/
func BenchmarkComputeCost(b *testing.B) {
	world := minimpi.World(1)
	defer world[0].Finalize()
	ctrl := vtk.NewController("mpi", world[0])

	// Iso extraction costs a scan per voxel and an emit per triangle. Two
	// inputs with different triangle densities — Fig. 5's Mandelbulb pair
	// (one server's share) and Fig. 6's whole Gray-Scott domain — give two
	// equations in the two constants.
	b.Run("iso", func(b *testing.B) {
		mb := sim.DefaultMandelbulb([3]int{28, 28, 14}, 2)
		gs := sim.NewGrayScott(nil, [3]int{48, 48, 48}, sim.DefaultGrayScott())
		if err := gs.Step(60); err != nil {
			b.Fatal(err)
		}
		slabs, _, err := sliceImageZ(gs.Block(), 16)
		if err != nil {
			b.Fatal(err)
		}
		inputs := []struct {
			blocks []*vtk.ImageData
			cfg    catalyst.IsoConfig
		}{
			{[]*vtk.ImageData{sim.MandelbulbBlock(mb, 0, 2), sim.MandelbulbBlock(mb, 1, 2)},
				catalyst.IsoConfig{Field: "value", IsoValues: []float64{8}, Width: 256, Height: 256, ScalarRange: [2]float64{0, 32}}},
			{slabs, catalyst.IsoConfig{
				Field: "V", IsoValues: []float64{0.1, 0.2, 0.3}, Width: 256, Height: 256, ScalarRange: [2]float64{0, 0.5},
				Clip: &catalyst.ClipSpec{Normal: [3]float64{1, 0, 0}, Offset: 24},
			}},
		}
		var cells, tris, ext [2]float64
		var ren, renTris float64
		for i := 0; i < b.N; i++ {
			for k, in := range inputs {
				st, _, err := catalyst.ExecuteIso(ctrl, in.blocks, in.cfg)
				if err != nil {
					b.Fatal(err)
				}
				cells[k], tris[k] = float64(st.LocalCells), float64(st.LocalTriangles)
				ext[k] += st.ExtractSeconds / float64(b.N)
				ren += st.RenderSeconds
				renTris += tris[k]
			}
		}
		// ext[k] = perCell*cells[k] + perTri*tris[k], by Cramer's rule.
		det := cells[0]*tris[1] - cells[1]*tris[0]
		b.ReportMetric(1e9*(ext[0]*tris[1]-ext[1]*tris[0])/det, "extract-ns/cell")
		b.ReportMetric(1e9*(cells[0]*ext[1]-cells[1]*ext[0])/det, "extract-ns/tri")
		b.ReportMetric(1e9*ren/renTris, "render-ns/tri")
	})
	b.Run("volume", func(b *testing.B) { // Fig. 10's last iteration, a quarter of its blocks
		dwi := sim.DWIConfig{Blocks: 64, Iterations: 30, BaseRes: 32, GrowthRes: 3}
		var grids []*vtk.UnstructuredGrid
		for blk := 0; blk < dwi.Blocks; blk += 4 {
			grids = append(grids, sim.DWIIterationBlock(dwi, dwi.Iterations, blk))
		}
		cfg := catalyst.VolumeConfig{Field: "velocity", Width: 256, Height: 256, ScalarRange: [2]float64{0, 2}, PointSize: 3}
		var ext, ren, cells float64
		for i := 0; i < b.N; i++ {
			st, _, err := catalyst.ExecuteVolume(ctrl, grids, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ext, ren, cells = ext+st.ExtractSeconds, ren+st.RenderSeconds, cells+float64(st.LocalCells)
		}
		b.ReportMetric(1e9*ext/cells, "extract-ns/cell")
		b.ReportMetric(1e9*ren/cells, "render-ns/cell")
	})
	b.Run("warmup", func(b *testing.B) { // a fresh instance's first execute, nothing staged
		catalyst.Register()
		factory, _ := core.LookupPipelineType(catalyst.IsoPipelineType)
		var secs, kib float64
		for i := 0; i < b.N; i++ {
			p, err := factory([]byte(`{"warmup_kib": 2048, "width": 256, "height": 256}`))
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Activate(core.IterationContext{Iteration: 1, Size: 1, Comm: world[0]}); err != nil {
				b.Fatal(err)
			}
			res, err := p.Execute(1)
			if err != nil {
				b.Fatal(err)
			}
			secs, kib = secs+res.Summary["warmup_sec"], kib+res.Summary["warmup_kib"]
			p.Destroy()
		}
		b.ReportMetric(1e9*secs/kib, "ns/KiB")
	})
}
