package bench

import "fmt"

// Experiment is one reproducible artifact of the paper (or an ablation).
type Experiment struct {
	Name string // CLI name, e.g. "table1"
	Desc string
	Run  func(quick bool) (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	wrap := func(f func(bool) *Table) func(bool) (*Table, error) {
		return func(q bool) (*Table, error) { return f(q), nil }
	}
	return []Experiment{
		{"fig1a", "DWI data growth (motivation)", wrap(Fig1aDataGrowth)},
		{"fig4", "resizing time: static restart vs elastic join", wrap(Fig4Resizing)},
		{"table1", "point-to-point: Cray-mpich / OpenMPI / MoNA / NA", wrap(Table1PointToPoint)},
		{"table2", "xor-reduce at 512 processes", wrap(Table2Reduce)},
		{"fig5", "Mandelbulb weak scaling, MPI vs MoNA", Fig5MandelbulbWeak},
		{"fig6", "Gray-Scott strong scaling, MPI vs MoNA", Fig6GrayScottStrong},
		{"fig7", "DWI per-iteration rendering, MPI vs MoNA", Fig7DWIScaling},
		{"fig8", "Colza vs Damaris vs DataSpaces", Fig8Frameworks},
		{"fig9", "elasticity in practice: Mandelbulb", Fig9MandelbulbElastic},
		{"fig10", "elasticity in practice: DWI", Fig10DWIElastic},
		{"a1", "ablation: collective tree shapes", wrap(AblationA1TreeShapes)},
		{"a2", "ablation: protocol switch thresholds", wrap(AblationA2EagerLimit)},
		{"a3", "ablation: compositing strategies", AblationA3Compositing},
		{"a4", "ablation: MoNA buffer cache", wrap(AblationA4BufferCache)},
		{"a5", "ablation: SSG gossip period vs propagation", wrap(AblationA5GossipPeriod)},
		{"ext-autoscale", "extension: autoscaled DWI run (paper future work 2)", ExtAutoscale},
		{"ext-shm", "extension: shared-memory vs cross-node MoNA (paper footnote 12)", ExtSharedMemory},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", name)
}
