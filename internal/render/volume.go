package render

import (
	"math"
	"sort"

	"colza/internal/vtk"
)

// splatOpacity is every splat's opacity at its centre.
const splatOpacity = 0.25

// VolumeOptions tunes the unstructured-grid volume splatter.
type VolumeOptions struct {
	Field       string     // cell array used for color
	ScalarRange [2]float64 // colormap domain
	ColorMap    ColorMap
	PointSize   float64 // splat radius in pixels at unit depth scale
}

// SplatVolume renders an unstructured grid as depth-sorted cell splats
// with back-to-front alpha blending — the volume-rendering stand-in for
// ParaView's unstructured volume mapper used by the Deep Water Impact
// pipeline. The output depth plane records the nearest splat per pixel so
// the compositor can still order partial images.
func SplatVolume(im *Image, cam Camera, grid *vtk.UnstructuredGrid, opt VolumeOptions) error {
	nc := grid.NumCells()
	if nc == 0 {
		return nil
	}
	arr, err := grid.CellArray(opt.Field)
	if err != nil {
		return err
	}
	cmap := opt.ColorMap
	if cmap == nil {
		cmap = CoolWarm
	}
	radius := opt.PointSize
	if radius <= 0 {
		radius = 1.5
	}
	span := opt.ScalarRange[1] - opt.ScalarRange[0]
	if span == 0 {
		span = 1
	}
	vp := cam.viewProjection(float64(im.W) / float64(im.H))

	type splat struct {
		x, y  float64
		z     float32
		t     float64 // normalized scalar
		depth float64 // eye distance for sorting
	}
	splats := make([]splat, 0, nc)
	for c := 0; c < nc; c++ {
		cen := grid.CellCentroid(c)
		p := Vec3{float64(cen[0]), float64(cen[1]), float64(cen[2])}
		x, y, z, w := vp.MulPoint(p)
		if w <= 1e-9 {
			continue
		}
		sx := (x/w + 1) * 0.5 * float64(im.W)
		sy := (1 - y/w) * 0.5 * float64(im.H)
		if sx < -radius || sy < -radius || sx > float64(im.W)+radius || sy > float64(im.H)+radius {
			continue
		}
		sc := (float64(arr.Data[c]) - opt.ScalarRange[0]) / span
		splats = append(splats, splat{x: sx, y: sy, z: float32(z / w), t: sc, depth: w})
	}
	// Painter's algorithm: far splats first.
	sort.Slice(splats, func(i, j int) bool { return splats[i].depth > splats[j].depth })

	for _, s := range splats {
		r8, g8, b8 := cmap(clamp01(s.t))
		minX := int(math.Floor(s.x - radius))
		maxX := int(math.Ceil(s.x + radius))
		minY := int(math.Floor(s.y - radius))
		maxY := int(math.Ceil(s.y + radius))
		if minX < 0 {
			minX = 0
		}
		if minY < 0 {
			minY = 0
		}
		if maxX >= im.W {
			maxX = im.W - 1
		}
		if maxY >= im.H {
			maxY = im.H - 1
		}
		for py := minY; py <= maxY; py++ {
			for px := minX; px <= maxX; px++ {
				dx, dy := float64(px)+0.5-s.x, float64(py)+0.5-s.y
				d2 := dx*dx + dy*dy
				if d2 > radius*radius {
					continue
				}
				fall := 1 - math.Sqrt(d2)/radius
				a := splatOpacity * fall
				idx := py*im.W + px
				o := 4 * idx
				// "Over" blend on top of current color.
				im.RGBA[o] = clamp8(a*float64(r8) + (1-a)*float64(im.RGBA[o]))
				im.RGBA[o+1] = clamp8(a*float64(g8) + (1-a)*float64(im.RGBA[o+1]))
				im.RGBA[o+2] = clamp8(a*float64(b8) + (1-a)*float64(im.RGBA[o+2]))
				na := a*255 + (1-a)*float64(im.RGBA[o+3])
				im.RGBA[o+3] = clamp8(na)
				if s.z < im.Depth[idx] {
					im.Depth[idx] = s.z
				}
			}
		}
	}
	return nil
}

// GridBounds computes the axis-aligned bounds of an unstructured grid's
// points; zero boxes for an empty grid.
func GridBounds(g *vtk.UnstructuredGrid) (Vec3, Vec3) {
	if g.NumPoints() == 0 {
		return Vec3{}, Vec3{}
	}
	lo, hi := vtk.EmptyBounds()
	return BoxOf(vtk.FoldBounds(lo, hi, g.Points))
}

// MeshBounds computes the bounds of a triangle mesh as Vec3s.
func MeshBounds(m *vtk.TriangleMesh) (Vec3, Vec3) { return BoxOf(m.Bounds()) }

// BoxOf widens a float32 box (vtk.FoldBounds) to Vec3s.
func BoxOf(lo, hi [3]float32) (Vec3, Vec3) {
	return Vec3{float64(lo[0]), float64(lo[1]), float64(lo[2])},
		Vec3{float64(hi[0]), float64(hi[1]), float64(hi[2])}
}
