package collectives

import (
	"bytes"
	"fmt"
	"testing"
)

// Table-driven edge cases: every collective at the odd group sizes the
// elastic runs actually produce (staging areas grow/shrink one server at a
// time, so non-power-of-two and single-rank groups are the common case).

var edgeSizes = []int{1, 3, 5, 7}

func TestEdgeBcastEmptyAndNilPayloads(t *testing.T) {
	for _, algo := range allAlgos {
		for _, n := range edgeSizes {
			for _, payload := range [][]byte{nil, {}, {0xAB}} {
				root := n - 1
				name := fmt.Sprintf("%v/n=%d/len=%d", algo.Kind, n, len(payload))
				got, err := runAll(n, func(p PT2PT) ([]byte, error) {
					in := payload
					if p.Rank() != root {
						in = []byte("stale")
					}
					return Bcast(p, root, 11, in, algo)
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for r, g := range got {
					if len(g) != len(payload) || (len(payload) > 0 && !bytes.Equal(g, payload)) {
						t.Fatalf("%s rank %d: got %v want %v", name, r, g, payload)
					}
				}
			}
		}
	}
}

func TestEdgeReduceEveryRoot(t *testing.T) {
	for _, algo := range allAlgos {
		for _, n := range edgeSizes {
			for root := 0; root < n; root++ {
				want := make([]byte, 16)
				inputs := make([][]byte, n)
				for r := range inputs {
					inputs[r] = bytes.Repeat([]byte{byte(r + 1)}, 16)
					XorBytes(want, inputs[r])
				}
				got, err := runAll(n, func(p PT2PT) ([]byte, error) {
					return Reduce(p, root, 21, inputs[p.Rank()], XorBytes, algo)
				})
				if err != nil {
					t.Fatalf("%v n=%d root=%d: %v", algo.Kind, n, root, err)
				}
				if !bytes.Equal(got[root], want) {
					t.Fatalf("%v n=%d root=%d: %v want %v", algo.Kind, n, root, got[root], want)
				}
				for r := range got {
					if r != root && got[r] != nil {
						t.Fatalf("%v n=%d root=%d: rank %d leaked a result", algo.Kind, n, root, r)
					}
				}
			}
		}
	}
}

func TestEdgeAllReduceSingleAndOdd(t *testing.T) {
	for _, algo := range allAlgos {
		for _, n := range edgeSizes {
			got, err := runAll(n, func(p PT2PT) ([]byte, error) {
				return AllReduce(p, 51, []byte{byte(1 << (p.Rank() % 8))}, XorBytes, algo)
			})
			if err != nil {
				t.Fatalf("%v n=%d allreduce: %v", algo.Kind, n, err)
			}
			var want byte
			for r := 0; r < n; r++ {
				want ^= byte(1 << (r % 8))
			}
			for r := range got {
				if len(got[r]) != 1 || got[r][0] != want {
					t.Fatalf("%v n=%d rank %d: %v want %#x", algo.Kind, n, r, got[r], want)
				}
			}
		}
	}
}

func TestEdgeErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		run  func(p PT2PT) ([]byte, error)
	}{
		{"bcast-negative-root", func(p PT2PT) ([]byte, error) {
			return Bcast(p, -1, 1, nil, DefaultAlgorithm)
		}},
		{"reduce-root-too-big", func(p PT2PT) ([]byte, error) {
			return Reduce(p, 99, 1, nil, XorBytes, DefaultAlgorithm)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := runAll(1, tc.run); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestEdgeKAryFanOutNormalized(t *testing.T) {
	// K < 2 silently normalizes to a binary tree rather than dividing by
	// zero or degenerating to a chain.
	for _, k := range []int{-3, 0, 1} {
		algo := Algorithm{Kind: KAry, K: k}
		got, err := runAll(5, func(p PT2PT) ([]byte, error) {
			in := []byte("payload")
			if p.Rank() != 0 {
				in = nil
			}
			return Bcast(p, 0, 61, in, algo)
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for r, g := range got {
			if string(g) != "payload" {
				t.Fatalf("k=%d rank %d: %q", k, r, g)
			}
		}
	}
}

func TestEdgeKindString(t *testing.T) {
	for k, want := range map[Kind]string{Binomial: "binomial", Flat: "flat", KAry: "kary", Kind(42): "Kind(42)"} {
		if got := k.String(); got != want {
			t.Fatalf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
