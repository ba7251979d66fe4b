package vtk

import "fmt"

// MergeUnstructured concatenates several unstructured grids into one,
// remapping point indices and concatenating data arrays by name (the
// block-merging step of the Deep Water Impact pipeline). All inputs must
// carry the same set of cell and point arrays. Kept only for
// benchmark/probes.go (ROADMAP item 1 deletes it).
func MergeUnstructured(grids ...*UnstructuredGrid) (*UnstructuredGrid, error) {
	out := NewUnstructuredGrid()
	if len(grids) == 0 {
		return out, nil
	}
	// Template arrays come from the first grid.
	for _, a := range grids[0].PointData {
		out.PointData = append(out.PointData, &DataArray{Name: a.Name, Components: a.Components})
	}
	for _, a := range grids[0].CellData {
		out.CellData = append(out.CellData, &DataArray{Name: a.Name, Components: a.Components})
	}
	for gi, g := range grids {
		base := int32(out.NumPoints())
		out.Points = append(out.Points, g.Points...)
		for ci := 0; ci < g.NumCells(); ci++ {
			cell := g.Cell(ci)
			remapped := make([]int32, len(cell))
			for i, p := range cell {
				remapped[i] = p + base
			}
			out.AddCell(g.CellTypes[ci], remapped...)
		}
		for _, dst := range out.PointData {
			src, err := g.PointArray(dst.Name)
			if err != nil {
				return nil, fmt.Errorf("vtk: merge: block %d lacks point array %q", gi, dst.Name)
			}
			dst.Data = append(dst.Data, src.Data...)
		}
		for _, dst := range out.CellData {
			src, err := g.CellArray(dst.Name)
			if err != nil {
				return nil, fmt.Errorf("vtk: merge: block %d lacks cell array %q", gi, dst.Name)
			}
			dst.Data = append(dst.Data, src.Data...)
		}
	}
	return out, nil
}
