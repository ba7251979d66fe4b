package codec

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestKernelsMatchReference is the property test behind the word-wise
// kernels: over randomized sizes (including every sub-stride and sub-tile
// tail shape) and all supported strides, the word-wise shuffle,
// unshuffle, and XOR produce bit-identical output to the byte-wise
// references, unshuffle inverts shuffle, and the split histogram counts
// what a plain loop counts.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257, 4096, 4097}
	for i := 0; i < 40; i++ {
		sizes = append(sizes, rng.Intn(1<<16))
	}
	for _, n := range sizes {
		src := make([]byte, n)
		rng.Read(src)
		for _, stride := range []int{1, 2, 4, 8} {
			got := make([]byte, n)
			want := make([]byte, n)
			shuffleBytes(got, src, stride)
			shuffleRef(want, src, stride)
			if !bytes.Equal(got, want) {
				t.Fatalf("shuffle n=%d stride=%d differs from reference", n, stride)
			}
			back := make([]byte, n)
			unshuffleBytes(back, got, stride)
			if !bytes.Equal(back, src) {
				t.Fatalf("unshuffle(shuffle) n=%d stride=%d not identity", n, stride)
			}
			backRef := make([]byte, n)
			unshuffleRef(backRef, got, stride)
			if !bytes.Equal(backRef, src) {
				t.Fatalf("unshuffle reference n=%d stride=%d not identity", n, stride)
			}
		}
		var got, want [256]uint32
		histogram(&got, src)
		for _, b := range src {
			want[b]++
		}
		if got != want {
			t.Fatalf("histogram n=%d differs from a plain count", n)
		}
		other := make([]byte, n)
		rng.Read(other)
		a := append([]byte(nil), src...)
		b := append([]byte(nil), src...)
		xorInto(a, other)
		xorIntoRef(b, other)
		if !bytes.Equal(a, b) {
			t.Fatalf("xorInto n=%d differs from reference", n)
		}
		xorInto(a, other)
		if !bytes.Equal(a, src) {
			t.Fatalf("xorInto n=%d not an involution", n)
		}
	}
}

func TestTranspose8x8(t *testing.T) {
	var src [64]byte
	for i := range src {
		src[i] = byte(i)
	}
	var w [8]uint64
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			w[r] |= uint64(src[r*8+c]) << (8 * c)
		}
	}
	transpose8x8(&w)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			got := byte(w[r] >> (8 * c))
			if got != src[c*8+r] {
				t.Fatalf("transpose (%d,%d): got %d want %d", r, c, got, src[c*8+r])
			}
		}
	}
}

// Kernel benchmarks: the word-wise implementations next to their
// byte-wise references, so bench-smoke records the before/after ratio.

const kernelBenchN = 256 << 10

func benchShuffle(b *testing.B, stride int, fn func(dst, src []byte, stride int)) {
	src := make([]byte, kernelBenchN)
	rand.New(rand.NewSource(1)).Read(src)
	dst := make([]byte, kernelBenchN)
	b.SetBytes(kernelBenchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, src, stride)
	}
}

func BenchmarkShuffleKernelWord8(b *testing.B) { benchShuffle(b, 8, shuffleBytes) }
func BenchmarkShuffleKernelRef8(b *testing.B)  { benchShuffle(b, 8, shuffleRef) }
func BenchmarkShuffleKernelWord4(b *testing.B) { benchShuffle(b, 4, shuffleBytes) }
func BenchmarkShuffleKernelRef4(b *testing.B)  { benchShuffle(b, 4, shuffleRef) }

func BenchmarkUnshuffleKernelWord8(b *testing.B) {
	benchShuffle(b, 8, unshuffleBytes)
}
func BenchmarkUnshuffleKernelRef8(b *testing.B) { benchShuffle(b, 8, unshuffleRef) }

func benchXor(b *testing.B, fn func(dst, src []byte)) {
	src := make([]byte, kernelBenchN)
	dst := make([]byte, kernelBenchN)
	rand.New(rand.NewSource(2)).Read(src)
	b.SetBytes(kernelBenchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(dst, src)
	}
}

func BenchmarkXorKernelWord(b *testing.B) { benchXor(b, xorInto) }
func BenchmarkXorKernelRef(b *testing.B)  { benchXor(b, xorIntoRef) }
