package collectives

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestMinFloat64: the element-wise minimum; a contribution shorter than the
// accumulator folds into its prefix and leaves the rest as it was.
func TestMinFloat64(t *testing.T) {
	f64 := func(vals ...float64) []byte {
		out := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	acc := MinFloat64(f64(1.5, -2, 3, -7), f64(0.25, 7, math.Inf(1), -4))
	if want := f64(0.25, -2, 3, -7); !bytes.Equal(acc, want) {
		t.Fatalf("MinFloat64 = %x, want %x", acc, want)
	}
	acc = MinFloat64(f64(5, 5), f64(1))
	if want := f64(1, 5); !bytes.Equal(acc, want) {
		t.Fatalf("short contribution: %x, want %x", acc, want)
	}
}
