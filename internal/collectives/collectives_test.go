package collectives

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// fabric is a threaded in-memory point-to-point substrate for exercising
// the collective algorithms: one goroutine per rank, channel transport,
// (src, tag) matching with a pending queue.
type fabric struct {
	eps []*fabricEP
}

type fabricMsg struct {
	src, tag int
	data     []byte
}

type fabricEP struct {
	f       *fabric
	rank    int
	in      chan fabricMsg
	pending []fabricMsg
}

func newFabric(n int) *fabric {
	f := &fabric{}
	for r := 0; r < n; r++ {
		f.eps = append(f.eps, &fabricEP{f: f, rank: r, in: make(chan fabricMsg, 4096)})
	}
	return f
}

func (e *fabricEP) Rank() int { return e.rank }
func (e *fabricEP) Size() int { return len(e.f.eps) }

func (e *fabricEP) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(e.f.eps) {
		return fmt.Errorf("bad dst %d", dst)
	}
	cp := append([]byte(nil), data...)
	e.f.eps[dst].in <- fabricMsg{src: e.rank, tag: tag, data: cp}
	return nil
}

func (e *fabricEP) Recv(src, tag int) ([]byte, error) {
	for i, m := range e.pending {
		if m.src == src && m.tag == tag {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return m.data, nil
		}
	}
	for {
		m := <-e.in
		if m.src == src && m.tag == tag {
			return m.data, nil
		}
		e.pending = append(e.pending, m)
	}
}

// runAll executes fn on every rank concurrently and returns per-rank
// results and first error.
func runAll(n int, fn func(p PT2PT) ([]byte, error)) ([][]byte, error) {
	f := newFabric(n)
	out := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out[r], errs[r] = fn(f.eps[r])
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

var allAlgos = []Algorithm{
	{Kind: Binomial},
	{Kind: Flat},
	{Kind: KAry, K: 2},
	{Kind: KAry, K: 3},
	{Kind: KAry, K: 7},
}

func TestBcastAllAlgorithmsSizesRoots(t *testing.T) {
	payload := []byte("colza-elastic-in-situ-visualization")
	for _, algo := range allAlgos {
		for _, n := range []int{1, 2, 3, 5, 8, 16, 33} {
			for _, root := range []int{0, n / 2, n - 1} {
				got, err := runAll(n, func(p PT2PT) ([]byte, error) {
					in := payload
					if p.Rank() != root {
						in = nil
					}
					return Bcast(p, root, 100, in, algo)
				})
				if err != nil {
					t.Fatalf("algo=%v n=%d root=%d: %v", algo, n, root, err)
				}
				for r, g := range got {
					if !bytes.Equal(g, payload) {
						t.Fatalf("algo=%v n=%d root=%d rank=%d: got %q", algo, n, root, r, g)
					}
				}
			}
		}
	}
}

func TestReduceXorMatchesSequentialFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, algo := range allAlgos {
		for _, n := range []int{1, 2, 4, 7, 16, 31} {
			root := n - 1
			inputs := make([][]byte, n)
			want := make([]byte, 64)
			for r := range inputs {
				inputs[r] = make([]byte, 64)
				rng.Read(inputs[r])
				XorBytes(want, inputs[r])
			}
			got, err := runAll(n, func(p PT2PT) ([]byte, error) {
				return Reduce(p, root, 7, inputs[p.Rank()], XorBytes, algo)
			})
			if err != nil {
				t.Fatalf("algo=%v n=%d: %v", algo, n, err)
			}
			for r := range got {
				if r == root {
					if !bytes.Equal(got[r], want) {
						t.Fatalf("algo=%v n=%d: root result mismatch", algo, n)
					}
				} else if got[r] != nil {
					t.Fatalf("algo=%v n=%d: non-root rank %d returned data", algo, n, r)
				}
			}
		}
	}
}

func TestReduceDoesNotClobberInput(t *testing.T) {
	n := 4
	inputs := make([][]byte, n)
	for r := range inputs {
		inputs[r] = bytes.Repeat([]byte{byte(r + 1)}, 8)
	}
	_, err := runAll(n, func(p PT2PT) ([]byte, error) {
		return Reduce(p, 0, 3, inputs[p.Rank()], XorBytes, DefaultAlgorithm)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range inputs {
		if !bytes.Equal(inputs[r], bytes.Repeat([]byte{byte(r + 1)}, 8)) {
			t.Fatalf("rank %d input was mutated: %v", r, inputs[r])
		}
	}
}

func TestAllReduceSumFloat64(t *testing.T) {
	n := 8
	got, err := runAll(n, func(p PT2PT) ([]byte, error) {
		buf := make([]byte, 8)
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(p.Rank()+1)))
		return AllReduce(p, 9, buf, SumFloat64, DefaultAlgorithm)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(n * (n + 1) / 2)
	for r := range got {
		v := math.Float64frombits(binary.LittleEndian.Uint64(got[r]))
		if v != want {
			t.Fatalf("rank %d: sum=%v want %v", r, v, want)
		}
	}
}

func TestBcastBadRoot(t *testing.T) {
	_, err := runAll(2, func(p PT2PT) ([]byte, error) {
		return Bcast(p, 5, 1, nil, DefaultAlgorithm)
	})
	if err == nil {
		t.Fatal("expected error for out-of-range root")
	}
}

// Property: binomial reduce over random group sizes, roots, and payloads
// matches the sequential fold.
func TestQuickReduceEquivalence(t *testing.T) {
	f := func(seed int64, nRaw, rootRaw uint8, size uint8) bool {
		n := int(nRaw%16) + 1
		root := int(rootRaw) % n
		l := int(size%33) + 1
		rng := rand.New(rand.NewSource(seed))
		inputs := make([][]byte, n)
		want := make([]byte, l)
		for r := range inputs {
			inputs[r] = make([]byte, l)
			rng.Read(inputs[r])
			XorBytes(want, inputs[r])
		}
		got, err := runAll(n, func(p PT2PT) ([]byte, error) {
			return Reduce(p, root, 2, inputs[p.Rank()], XorBytes, DefaultAlgorithm)
		})
		if err != nil {
			return false
		}
		return bytes.Equal(got[root], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsNumeric(t *testing.T) {
	f32 := func(vals ...float32) []byte {
		out := make([]byte, 4*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
		return out
	}
	readF32 := func(b []byte) []float32 {
		out := make([]float32, len(b)/4)
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		return out
	}
	acc := f32(1, 5, 3)
	MinFloat32(acc, f32(2, 4, 9))
	if got := readF32(acc); got[0] != 1 || got[1] != 4 || got[2] != 3 {
		t.Fatalf("MinFloat32 = %v", got)
	}
	acc = f32(1, 5, 3)
	MaxFloat32(acc, f32(2, 4, 9))
	if got := readF32(acc); got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("MaxFloat32 = %v", got)
	}
	i64 := make([]byte, 16)
	binary.LittleEndian.PutUint64(i64, uint64(7))
	binary.LittleEndian.PutUint64(i64[8:], ^uint64(0)) // -1
	in := make([]byte, 16)
	binary.LittleEndian.PutUint64(in, uint64(5))
	binary.LittleEndian.PutUint64(in[8:], uint64(3))
	SumInt64(i64, in)
	if got := int64(binary.LittleEndian.Uint64(i64)); got != 12 {
		t.Fatalf("SumInt64[0] = %d", got)
	}
	if got := int64(binary.LittleEndian.Uint64(i64[8:])); got != 2 {
		t.Fatalf("SumInt64[1] = %d", got)
	}
}

// TestOpsShortContribution: a contribution comes from a peer, so one shorter
// than the accumulator folds into the accumulator's prefix and leaves the
// rest as it was — no op reads past what the peer sent.
func TestOpsShortContribution(t *testing.T) {
	for name, op := range map[string]Op{
		"XorBytes": XorBytes, "SumFloat64": SumFloat64, "MinFloat32": MinFloat32,
		"MaxFloat32": MaxFloat32, "SumInt64": SumInt64,
	} {
		in := bytes.Repeat([]byte{0xBF}, 8)
		want := op(bytes.Repeat([]byte{0x3F}, 8), in)
		got := op(bytes.Repeat([]byte{0x3F}, 16), in)
		if !bytes.Equal(got[:8], want) || !bytes.Equal(got[8:], bytes.Repeat([]byte{0x3F}, 8)) {
			t.Errorf("%s: %x, want %x folded in and the last 8 bytes untouched", name, got, want)
		}
	}
}

// ownershipRecorder watches one rank of a reduce: the slices it hands to
// Send, as handed, and how many contributions it receives.
type ownershipRecorder struct {
	PT2PT
	sent  [][]byte
	recvs int
}

func (o *ownershipRecorder) Send(dst, tag int, data []byte) error {
	o.sent = append(o.sent, data)
	return o.PT2PT.Send(dst, tag, data)
}

func (o *ownershipRecorder) Recv(src, tag int) ([]byte, error) {
	o.recvs++
	return o.PT2PT.Recv(src, tag)
}

// checkReduceOwnership runs Reduce with op on 1–5 ranks, every algorithm
// and root, and holds the ownership rule: no rank's input is written; a
// rank that receives nothing (a leaf) sends its input as it lies, not a
// copy; and the root's result on more than one rank is a buffer of its
// own, equal to want(inputs).
func checkReduceOwnership(t *testing.T, op Op, inputs func(n int) [][]byte, want func([][]byte) []byte) {
	t.Helper()
	for _, algo := range allAlgos {
		for n := 1; n <= 5; n++ {
			for root := 0; root < n; root++ {
				in := inputs(n)
				snap := make([][]byte, n)
				for r := range in {
					snap[r] = bytes.Clone(in[r])
				}
				recs := make([]*ownershipRecorder, n)
				got, err := runAll(n, func(p PT2PT) ([]byte, error) {
					rec := &ownershipRecorder{PT2PT: p}
					recs[p.Rank()] = rec
					return Reduce(rec, root, 40, in[p.Rank()], op, algo)
				})
				if err != nil {
					t.Fatalf("algo=%v n=%d root=%d: %v", algo, n, root, err)
				}
				for r := range in {
					if !bytes.Equal(in[r], snap[r]) {
						t.Fatalf("algo=%v n=%d root=%d: rank %d's input was written", algo, n, root, r)
					}
					if rec := recs[r]; rec.recvs == 0 && r != root {
						if len(rec.sent) != 1 || &rec.sent[0][0] != &in[r][0] {
							t.Fatalf("algo=%v n=%d root=%d: leaf %d sent a copy of its input", algo, n, root, r)
						}
					}
				}
				if !bytes.Equal(got[root], want(snap)) {
					t.Fatalf("algo=%v n=%d root=%d: result differs from the sequential fold", algo, n, root)
				}
				if n > 1 && &got[root][0] == &in[root][0] {
					t.Fatalf("algo=%v n=%d root=%d: the root's result is its input", algo, n, root)
				}
			}
		}
	}
}

// TestReduceCopiesOnlyOnReceivingRanks: a reduce folds into a private copy
// made at a rank's first receive; a leaf neither copies nor writes its
// input. The depth-merge op is held to the same rule in internal/icet.
func TestReduceCopiesOnlyOnReceivingRanks(t *testing.T) {
	checkReduceOwnership(t, SumInt64,
		func(n int) [][]byte {
			in := make([][]byte, n)
			for r := range in {
				in[r] = make([]byte, 8*4)
				for i := 0; i < 4; i++ {
					binary.LittleEndian.PutUint64(in[r][8*i:], uint64(int64(r*10-i)))
				}
			}
			return in
		},
		func(in [][]byte) []byte {
			acc := bytes.Clone(in[0])
			for _, b := range in[1:] {
				acc = SumInt64(acc, b)
			}
			return acc
		})
}

// lender lends every payload it receives in a frame of its own, one byte
// longer, and checks that only frames it lent come back, once, whole.
// A frame that comes back is poisoned, so a result still reading it is
// wrong. failAt > 0 fails the failAt-th receive.
type lender struct {
	PT2PT
	t        *testing.T
	mu       sync.Mutex
	out      map[*byte]bool // frames lent and not back, by first byte
	recvs    int
	released int
	failAt   int
}

var errLend = errors.New("lender: receive failed")

func newLender(t *testing.T, p PT2PT) *lender {
	return &lender{PT2PT: p, t: t, out: make(map[*byte]bool)}
}

func (l *lender) RecvFrame(src, tag int) (data, frame []byte, err error) {
	if l.recvs++; l.recvs == l.failAt {
		return nil, nil, errLend
	}
	if data, err = l.PT2PT.Recv(src, tag); err != nil {
		return nil, nil, err
	}
	frame = append([]byte{0xee}, data...)
	l.mu.Lock()
	l.out[&frame[0]] = true
	l.mu.Unlock()
	return frame[1:], frame, nil
}

func (l *lender) Release(frame []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(frame) == 0 || !l.out[&frame[0]] {
		l.t.Errorf("rank %d: a frame it did not lend, or a part of one, came back", l.Rank())
		return
	}
	delete(l.out, &frame[0])
	l.released++
	for i := range frame {
		frame[i] = 0xdd
	}
}

// TestLentFramesGoBack: over a Lender, a reduce hands back every
// contribution it folds and an all-reduce the frame of the broadcast
// result too (every rank's result stays right after its frames are
// poisoned), while a broadcast leaves the payload it returns with the
// caller.
func TestLentFramesGoBack(t *testing.T) {
	in := func(r int) []byte {
		b := make([]byte, 8*3)
		for i := 0; i < 3; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(int64(r*7-i)))
		}
		return b
	}
	for _, algo := range allAlgos {
		for _, n := range []int{1, 2, 3, 5, 8} {
			want := bytes.Clone(in(0))
			for r := 1; r < n; r++ {
				want = SumInt64(want, in(r))
			}
			for _, kind := range []string{"reduce", "allreduce", "bcast"} {
				lenders := make([]*lender, n)
				var mu sync.Mutex
				got, err := runAll(n, func(p PT2PT) ([]byte, error) {
					l := newLender(t, p)
					mu.Lock()
					lenders[p.Rank()] = l
					mu.Unlock()
					switch kind {
					case "reduce":
						return Reduce(l, n-1, 40, in(p.Rank()), SumInt64, algo)
					case "allreduce":
						return AllReduce(l, 40, in(p.Rank()), SumInt64, algo)
					default:
						return Bcast(l, 0, 40, want, algo)
					}
				})
				if err != nil {
					t.Fatalf("%s algo=%v n=%d: %v", kind, algo, n, err)
				}
				for r, l := range lenders {
					switch {
					case kind == "bcast" && (len(l.out) != l.recvs || l.released != 0):
						t.Errorf("bcast algo=%v n=%d rank %d: %d of %d received frames back", algo, n, r, l.released, l.recvs)
					case kind != "bcast" && len(l.out) != 0:
						t.Errorf("%s algo=%v n=%d rank %d: %d of %d received frames not back", kind, algo, n, r, len(l.out), l.recvs)
					}
					if (kind != "reduce" || r == n-1) && !bytes.Equal(got[r], want) {
						t.Errorf("%s algo=%v n=%d rank %d: wrong result", kind, algo, n, r)
					}
				}
			}
		}
	}
}

// TestFoldReceiveError: a receive that fails after a rank has folded into
// its own copy fails the reduce with that error.
func TestFoldReceiveError(t *testing.T) {
	for _, algo := range []Algorithm{{Kind: Binomial}, {Kind: Flat}, {Kind: KAry, K: 3}} {
		_, err := runAll(4, func(p PT2PT) ([]byte, error) {
			l := newLender(t, p)
			if p.Rank() == 0 {
				l.failAt = 2
			}
			return Reduce(l, 0, 50, make([]byte, 16), SumInt64, algo)
		})
		if !errors.Is(err, errLend) {
			t.Errorf("algo=%v: reduce returned %v, want the receive's error", algo, err)
		}
	}
}
