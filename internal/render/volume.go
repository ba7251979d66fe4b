package render

import (
	"encoding/binary"
	"math"

	"colza/internal/vtk"
)

// splatOpacity is every splat's opacity at its centre.
const splatOpacity = 0.25

// opacityOne is the fixed-point unit of accumulated opacity: a splat of
// opacity a at a pixel adds round(a·opacityOne) to that pixel's Σa.
const opacityOne = 1 << 20

// VolumeOptions tunes the unstructured-grid volume splatter.
type VolumeOptions struct {
	Field       string     // cell array used for color
	ScalarRange [2]float64 // colormap domain
	ColorMap    ColorMap
	PointSize   float64 // splat radius in pixels at unit depth scale
}

// AccumulateVolume adds a splat per cell of grid into acc, the accumulator
// of a w×h image: a disc around the cell's projected centroid whose opacity
// a falls linearly from splatOpacity at the centre to 0 at the radius, the
// stand-in for ParaView's unstructured volume mapper. Per pixel, acc holds
// four little-endian int64 sums, Σa·r, Σa·g, Σa·b and Σa, a in fixed point
// (weighted blended OIT, McGuire & Bavoil, JCGT 2013). They commute and
// associate, so accumulators add by collectives.SumInt64 and the image is
// a function of the cells alone, whatever their order or split.
func AccumulateVolume(acc []byte, w, h int, cam Camera, grid *vtk.UnstructuredGrid, opt VolumeOptions) error {
	nc := grid.NumCells()
	if nc == 0 {
		return nil
	}
	if w <= 0 || h <= 0 || len(acc) != 32*w*h {
		return ErrImage
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
	vp := cam.viewProjection(float64(w) / float64(h))
	for c := 0; c < nc; c++ {
		cen := grid.CellCentroid(c)
		x, y, _, cw := vp.MulPoint(Vec3{float64(cen[0]), float64(cen[1]), float64(cen[2])})
		if cw <= 1e-9 {
			continue
		}
		sx := (x/cw + 1) * 0.5 * float64(w)
		sy := (1 - y/cw) * 0.5 * float64(h)
		if !(sx >= -radius && sy >= -radius && sx <= float64(w)+radius && sy <= float64(h)+radius) {
			continue
		}
		r8, g8, b8 := cmap(clamp01((float64(arr.Data[c]) - opt.ScalarRange[0]) / span))
		minX, maxX := max(int(math.Floor(sx-radius)), 0), min(int(math.Ceil(sx+radius)), w-1)
		minY, maxY := max(int(math.Floor(sy-radius)), 0), min(int(math.Ceil(sy+radius)), h-1)
		for py := minY; py <= maxY; py++ {
			for px := minX; px <= maxX; px++ {
				dx, dy := float64(px)+0.5-sx, float64(py)+0.5-sy
				d2 := dx*dx + dy*dy
				if d2 > radius*radius {
					continue
				}
				a := int64(splatOpacity*(1-math.Sqrt(d2)/radius)*opacityOne + 0.5)
				s := acc[32*(py*w+px):][:32]
				binary.LittleEndian.PutUint64(s, binary.LittleEndian.Uint64(s)+uint64(a*int64(r8)))
				binary.LittleEndian.PutUint64(s[8:], binary.LittleEndian.Uint64(s[8:])+uint64(a*int64(g8)))
				binary.LittleEndian.PutUint64(s[16:], binary.LittleEndian.Uint64(s[16:])+uint64(a*int64(b8)))
				binary.LittleEndian.PutUint64(s[24:], binary.LittleEndian.Uint64(s[24:])+uint64(a))
			}
		}
	}
	return nil
}

// ResolveVolume writes the image of acc, an accumulator of im's size, into
// im's colour plane. A pixel's colour is the opacity-weighted mean Σa·c /
// Σa of its splats' colours and its alpha 1 − exp(−Σa); a pixel no splat
// reached is transparent black. A depth plane, if im has one, is left as
// it is.
func ResolveVolume(im *Image, acc []byte) error {
	if len(acc) != 32*im.W*im.H || len(im.RGBA) != 4*im.W*im.H {
		return ErrImage
	}
	for i := 0; i < im.W*im.H; i++ {
		s, o := acc[32*i:][:32], im.RGBA[4*i:][:4]
		sa := int64(binary.LittleEndian.Uint64(s[24:]))
		if sa <= 0 {
			clear(o)
			continue
		}
		for k := 0; k < 3; k++ {
			o[k] = uint8((int64(binary.LittleEndian.Uint64(s[8*k:])) + sa/2) / sa)
		}
		o[3] = clamp8(255 * (1 - math.Exp(-float64(sa)/opacityOne)))
	}
	return nil
}

// SplatVolume renders grid into im by AccumulateVolume and ResolveVolume;
// kept only for benchmark/probes.go (ROADMAP item 1 deletes it).
func SplatVolume(im *Image, cam Camera, grid *vtk.UnstructuredGrid, opt VolumeOptions) error {
	acc := make([]byte, 32*im.W*im.H)
	if err := AccumulateVolume(acc, im.W, im.H, cam, grid, opt); err != nil {
		return err
	}
	return ResolveVolume(im, acc)
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
