package render

import (
	"bytes"
	"encoding/binary"
	"errors"
	"image"
	"image/png"
	"math"
	"sync"
)

// ErrImage reports a malformed serialized framebuffer.
var ErrImage = errors.New("render: malformed framebuffer")

// Image is a framebuffer with color and depth planes; depth is the
// normalized-device z in [-1, 1], initialized to +Inf for background.
// Color is RGBA, 4 bytes per pixel, row-major.
type Image struct {
	W, H  int
	RGBA  []uint8
	Depth []float32
}

// NewImage allocates a cleared framebuffer.
func NewImage(w, h int) *Image {
	img := &Image{W: w, H: h, RGBA: make([]uint8, 4*w*h), Depth: make([]float32, w*h)}
	img.Clear()
	return img
}

// Clear resets color to transparent black and depth to +Inf.
func (im *Image) Clear() {
	for i := range im.RGBA {
		im.RGBA[i] = 0
	}
	inf := float32(math.Inf(1))
	for i := range im.Depth {
		im.Depth[i] = inf
	}
}

// SetBackground fills color with an opaque background (keeping depth at
// +Inf so any geometry overwrites it).
func (im *Image) SetBackground(r, g, b uint8) {
	for i := 0; i < len(im.RGBA); i += 4 {
		im.RGBA[i], im.RGBA[i+1], im.RGBA[i+2], im.RGBA[i+3] = r, g, b, 255
	}
}

// At returns the color at pixel (x, y).
func (im *Image) At(x, y int) (r, g, b, a uint8) {
	i := 4 * (y*im.W + x)
	return im.RGBA[i], im.RGBA[i+1], im.RGBA[i+2], im.RGBA[i+3]
}

// Encode serializes the framebuffer (color + depth), the unit exchanged
// by the compositor.
func (im *Image) Encode() []byte {
	buf := make([]byte, 8+len(im.RGBA)+4*len(im.Depth))
	binary.LittleEndian.PutUint32(buf, uint32(im.W))
	binary.LittleEndian.PutUint32(buf[4:], uint32(im.H))
	copy(buf[8:], im.RGBA)
	off := 8 + len(im.RGBA)
	for i, d := range im.Depth {
		binary.LittleEndian.PutUint32(buf[off+4*i:], math.Float32bits(d))
	}
	return buf
}

// DecodeImage reverses Encode.
func DecodeImage(data []byte) (*Image, error) {
	if len(data) < 8 {
		return nil, ErrImage
	}
	w := int(binary.LittleEndian.Uint32(data))
	h := int(binary.LittleEndian.Uint32(data[4:]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 || len(data) != 8+8*w*h {
		return nil, ErrImage
	}
	im := &Image{W: w, H: h, RGBA: make([]uint8, 4*w*h), Depth: make([]float32, w*h)}
	copy(im.RGBA, data[8:8+4*w*h])
	off := 8 + 4*w*h
	for i := range im.Depth {
		im.Depth[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[off+4*i:]))
	}
	return im, nil
}

// PNG encodes the color plane as a PNG. The plane already has the layout
// of image.NRGBA's Pix (non-premultiplied RGBA, row-major, no padding), so
// the encoder reads it in place.
func (im *Image) PNG() ([]byte, error) {
	src := image.NRGBA{Pix: im.RGBA, Stride: 4 * im.W, Rect: image.Rect(0, 0, im.W, im.H)}
	var buf bytes.Buffer
	if err := pngEncoder.Encode(&buf, &src); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// pngEncoder is png.Encode's encoder (default compression) with its
// per-image scratch — row filters and the deflate state — recycled between
// encodes.
var pngEncoder = png.Encoder{BufferPool: &pngBufferPool{}}

type pngBufferPool struct{ pool sync.Pool }

func (p *pngBufferPool) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b
}

func (p *pngBufferPool) Put(b *png.EncoderBuffer) { p.pool.Put(b) }

// CoveredPixels counts pixels with finite depth (geometry present).
func (im *Image) CoveredPixels() int {
	n := 0
	for _, d := range im.Depth {
		if !math.IsInf(float64(d), 1) {
			n++
		}
	}
	return n
}

// ColorMap maps a scalar in [0, 1] to a color.
type ColorMap func(t float64) (r, g, b uint8)

// CoolWarm is a blue-white-red diverging map (ParaView's default).
func CoolWarm(t float64) (uint8, uint8, uint8) {
	t = clamp01(t)
	// Piecewise-linear approximation of the Moreland cool-warm map.
	if t < 0.5 {
		u := t * 2
		return lerp8(59, 221, u), lerp8(76, 221, u), lerp8(192, 221, u)
	}
	u := (t - 0.5) * 2
	return lerp8(221, 180, u), lerp8(221, 4, u), lerp8(221, 38, u)
}

// Viridis is a perceptually uniform map approximation.
func Viridis(t float64) (uint8, uint8, uint8) {
	t = clamp01(t)
	// Control points sampled from the viridis palette.
	pts := [][3]float64{
		{68, 1, 84}, {59, 82, 139}, {33, 145, 140}, {94, 201, 98}, {253, 231, 37},
	}
	x := t * float64(len(pts)-1)
	i := int(x)
	if i >= len(pts)-1 {
		i = len(pts) - 2
	}
	u := x - float64(i)
	a, b := pts[i], pts[i+1]
	return uint8(a[0] + u*(b[0]-a[0])), uint8(a[1] + u*(b[1]-a[1])), uint8(a[2] + u*(b[2]-a[2]))
}

// clamp01 maps t into [0, 1]. NaN maps to 0: a colormap turns t into an
// index, and int(NaN) is negative, so one garbage scalar would otherwise
// panic a render.
func clamp01(t float64) float64 {
	if !(t >= 0) {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

func lerp8(a, b float64, t float64) uint8 { return uint8(a + (b-a)*t) }
