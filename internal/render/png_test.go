package render

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"math/rand"
	"testing"
)

// TestPNGDecodesToPlane: whatever the plane holds — random bytes, fully
// transparent pixels over a non-zero colour among them — the PNG decodes
// through image/png to exactly Image.RGBA, at 1×1, odd widths up to 300
// and the benchmark's 256².
func TestPNGDecodesToPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	sizes := [][2]int{{1, 1}, {256, 256}, {299, 1}, {1, 7}}
	for i := 0; i < 12; i++ {
		sizes = append(sizes, [2]int{1 + 2*rng.Intn(150), 1 + rng.Intn(60)})
	}
	for _, sz := range sizes {
		im := NewImage(sz[0], sz[1])
		rng.Read(im.RGBA)
		for p := 0; p < len(im.RGBA); p += 4 * (1 + rng.Intn(5)) {
			im.RGBA[p] |= 1
			im.RGBA[p+3] = 0
		}
		enc, err := im.PNG()
		if err != nil {
			t.Fatal(err)
		}
		dec, err := png.Decode(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%dx%d: %v", im.W, im.H, err)
		}
		nrgba, ok := dec.(*image.NRGBA)
		if !ok {
			t.Fatalf("%dx%d: decodes to a %T, want *image.NRGBA", im.W, im.H, dec)
		}
		if nrgba.Rect != image.Rect(0, 0, im.W, im.H) || !bytes.Equal(nrgba.Pix, im.RGBA) {
			t.Fatalf("%dx%d: the PNG does not decode to the colour plane", im.W, im.H)
		}
	}
}

// TestPNGRefusesMalformedImage: a side of zero or a colour plane of the
// wrong length is an error, not a file or a panic.
func TestPNGRefusesMalformedImage(t *testing.T) {
	for _, im := range []*Image{
		{W: 0, H: 4},
		{W: 4, H: -1},
		{W: 1 << 25, H: 1},
		{W: 3, H: 3, RGBA: make([]uint8, 35)},
	} {
		if _, err := im.PNG(); err == nil {
			t.Errorf("%dx%d with %d colour bytes: encoded", im.W, im.H, len(im.RGBA))
		}
	}
}

// TestPNGAllocatesOnlyItsOutput: once warm, an encode allocates the file
// it returns and nothing else — the deflate state and the compressed
// stream are recycled.
func TestPNGAllocatesOnlyItsOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	for _, n := range []int{16, 256} {
		t.Run(fmt.Sprintf("%dx%d", n, n), func(t *testing.T) {
			im := NewImage(n, n)
			rng := rand.New(rand.NewSource(int64(n)))
			rng.Read(im.RGBA[:len(im.RGBA)/2])
			if _, err := im.PNG(); err != nil { // warm
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := im.PNG(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("%.1f allocations per encode, want 1 (the output)", allocs)
			}
		})
	}
}
