package bufpool

import (
	"testing"
)

func TestGetLenAndClassCap(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 256},
		{1, 256},
		{256, 256},
		{257, 512},
		{4096, 4096},
		{4097, 8192},
		{1 << 20, 1 << 20},
		{(1 << 20) + 1, 2 << 20},
		{1 << 26, 1 << 26},
	}
	for _, c := range cases {
		b := Get(c.n)
		if len(b) != c.n {
			t.Fatalf("Get(%d): len = %d", c.n, len(b))
		}
		if cap(b) < c.wantCap {
			t.Fatalf("Get(%d): cap = %d, want >= %d", c.n, cap(b), c.wantCap)
		}
		Put(b)
	}
}

func TestOversizeFallsBack(t *testing.T) {
	n := (1 << 26) + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("len = %d", len(b))
	}
	Put(b) // must not panic; silently dropped
}

func TestTinyPutDropped(t *testing.T) {
	Put(make([]byte, 16)) // below min class: dropped, no panic
	Put(nil)
}

func TestRoundTripReuse(t *testing.T) {
	// A put buffer should be handed back for a same-class get. sync.Pool
	// gives no hard guarantee, so accept either but require no size mixup.
	b := Get(1000)
	for i := range b {
		b[i] = 0xAB
	}
	Put(b)
	c := Get(900)
	if len(c) != 900 || cap(c) < 900 {
		t.Fatalf("len=%d cap=%d", len(c), cap(c))
	}
	Put(c)
}

func TestForeignCapacityPut(t *testing.T) {
	// A non-power-of-two buffer lands in the class floor(log2(cap)) and can
	// serve gets up to that class size.
	Put(make([]byte, 3000))
	b := Get(2048)
	if len(b) != 2048 {
		t.Fatalf("len = %d", len(b))
	}
	Put(b)
}
