package render

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/crc32"
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
func (im *Image) Encode() []byte { return im.AppendEncode(nil) }

// DecodeImage reverses Encode.
func DecodeImage(data []byte) (*Image, error) {
	im := &Image{}
	if err := DecodeImageInto(im, data); err != nil {
		return nil, err
	}
	return im, nil
}

// PNG encodes the color plane as an 8-bit RGBA PNG, which is its layout
// (non-premultiplied, row-major, no padding): the signature, IHDR, one
// IDAT and IEND. Every row has filter type 0 and the stream is deflated at
// BestSpeed — on a rendered frame the adaptive row filters cost more than
// half the encode for a file a few per cent smaller. The deflate state and
// the compressed stream are recycled between encodes; what is allocated
// is the returned file. An image with a side of zero or over 2^24 (where
// 4·W·H could wrap) or a colour plane of another length is refused.
func (im *Image) PNG() ([]byte, error) {
	if im.W <= 0 || im.H <= 0 || im.W > 1<<24 || im.H > 1<<24 || len(im.RGBA) != 4*im.W*im.H {
		return nil, ErrImage
	}
	pw := pngWriters.Get().(*pngWriter)
	defer pngWriters.Put(pw)
	pw.idat.Reset()
	pw.zw.Reset(&pw.idat)
	stride := 4 * im.W
	for row := im.RGBA; len(row) > 0; row = row[stride:] {
		pw.zw.Write(pngFilterNone[:])
		pw.zw.Write(row[:stride])
	}
	if err := pw.zw.Close(); err != nil {
		return nil, err
	}
	idat := pw.idat.Bytes()
	// Bit depth 8, colour type 6 (RGBA), deflate, filter method 0 (type 0
	// on every row), no interlace.
	ihdr := [13]byte{8: 8, 9: 6}
	binary.BigEndian.PutUint32(ihdr[0:], uint32(im.W))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(im.H))
	out := make([]byte, 0, len(pngSignature)+3*12+len(ihdr)+len(idat))
	out = append(out, pngSignature...)
	out = appendPNGChunk(out, "IHDR", ihdr[:])
	out = appendPNGChunk(out, "IDAT", idat)
	return appendPNGChunk(out, "IEND", nil), nil
}

const pngSignature = "\x89PNG\r\n\x1a\n"

// pngFilterNone is the filter-type byte that opens every row.
var pngFilterNone = [1]byte{0}

// appendPNGChunk appends one chunk: data's length, the type, data, and
// the CRC of type and data.
func appendPNGChunk(b []byte, typ string, data []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(data)))
	start := len(b)
	b = append(b, typ...)
	b = append(b, data...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// pngWriter is one encode's recycled state: the deflate stream and the
// buffer it compresses into.
type pngWriter struct {
	zw   *zlib.Writer
	idat bytes.Buffer
}

var pngWriters = sync.Pool{New: func() any {
	pw := &pngWriter{}
	pw.zw, _ = zlib.NewWriterLevel(&pw.idat, zlib.BestSpeed) // a valid level: no error
	return pw
}}

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
