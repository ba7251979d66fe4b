package collectives

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

func TestGatherScatterRoundTrip(t *testing.T) {
	n, root := 9, 4
	got, err := runAll(n, func(p PT2PT) ([]byte, error) {
		mine := []byte(fmt.Sprintf("rank-%d", p.Rank()))
		gathered, err := Gather(p, root, 5, mine)
		if err != nil {
			return nil, err
		}
		return Scatter(p, root, 6, gathered)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range got {
		want := fmt.Sprintf("rank-%d", r)
		if string(got[r]) != want {
			t.Fatalf("rank %d: got %q want %q", r, got[r], want)
		}
	}
}

func TestAllGather(t *testing.T) {
	n := 6
	f := newFabric(n)
	results := make([][][]byte, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			res, err := AllGather(f.eps[r], 40, []byte{byte(r * 3)}, DefaultAlgorithm)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
				return
			}
			results[r] = res
		}(r)
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if len(results[r]) != n {
			t.Fatalf("rank %d: got %d parts", r, len(results[r]))
		}
		for i := 0; i < n; i++ {
			if len(results[r][i]) != 1 || results[r][i][0] != byte(i*3) {
				t.Fatalf("rank %d part %d wrong: %v", r, i, results[r][i])
			}
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

func TestBarrierNoEarlyExit(t *testing.T) {
	n := 12
	var entered atomic.Int32
	_, err := runAll(n, func(p PT2PT) ([]byte, error) {
		entered.Add(1)
		if err := Barrier(p, 900); err != nil {
			return nil, err
		}
		if got := entered.Load(); got != int32(n) {
			return nil, fmt.Errorf("rank %d exited barrier with only %d entered", p.Rank(), got)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
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

// Property: EncodeSlices/DecodeSlices round-trips arbitrary slice lists.
func TestQuickSliceFrameRoundTrip(t *testing.T) {
	f := func(parts [][]byte) bool {
		dec, err := DecodeSlices(EncodeSlices(parts))
		if err != nil {
			return false
		}
		if len(dec) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(dec[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSlicesMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2},
		{5, 0, 0, 0},                 // claims 5 parts, no data
		{1, 0, 0, 0, 10, 0, 0, 0, 1}, // part longer than frame
	}
	for i, c := range cases {
		if _, err := DecodeSlices(c); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

// sliceFrame is a slice frame that claims count parts, followed by body.
func sliceFrame(count uint32, body ...byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, count), body...)
}

// decodeAllocs decodes frame and reports the bytes that allocated.
func decodeAllocs(frame []byte) (parts [][]byte, allocated uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	parts, err = DecodeSlices(frame)
	runtime.ReadMemStats(&after)
	return parts, after.TotalAlloc - before.TotalAlloc, err
}

// TestDecodeSlicesRefusesLyingFrames: an all-gather frame comes from a
// peer, so a count its bytes cannot hold is refused before the part table
// is sized by it — a 4-byte frame claiming 1<<24 parts used to allocate
// 384 MiB, and one claiming 0xffffffff ended the process — and so is a
// frame with bytes after its last part.
func TestDecodeSlicesRefusesLyingFrames(t *testing.T) {
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"1<<24 parts, no body", sliceFrame(1 << 24)},
		{"1<<24 parts, one empty part", sliceFrame(1<<24, 0, 0, 0, 0)},
		{"the first part takes the second's length", sliceFrame(2, 4, 0, 0, 0, 'a', 'b', 'c', 'd')},
		{"bytes after the last part", sliceFrame(1, 1, 0, 0, 0, 'a', 'b')},
	} {
		_, allocated, err := decodeAllocs(c.frame)
		if err == nil || !strings.Contains(err.Error(), "malformed slice frame") {
			t.Errorf("%s: %v, want a malformed-frame error", c.name, err)
		}
		if allocated > 64<<10 {
			t.Errorf("%s: decoding allocated %d bytes", c.name, allocated)
		}
	}
}

// FuzzDecodeSlices: whatever a peer sends, decoding never panics, allocates
// within a small multiple of the frame, and accepts only what EncodeSlices
// produces.
func FuzzDecodeSlices(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeSlices(nil))
	f.Add(EncodeSlices([][]byte{[]byte("rank0"), nil, []byte("r2")}))
	f.Add(sliceFrame(1 << 24))
	f.Add(sliceFrame(0xffffffff, 0, 0, 0, 0))
	f.Add(sliceFrame(1, 9, 0, 0, 0, 'a'))
	f.Add(sliceFrame(1, 1, 0, 0, 0, 'a', 'b'))
	f.Fuzz(func(t *testing.T, frame []byte) {
		parts, allocated, err := decodeAllocs(frame)
		if limit := uint64(8*len(frame) + 64<<10); allocated > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(frame), allocated, limit)
		}
		if err != nil {
			return
		}
		if re := EncodeSlices(parts); !bytes.Equal(re, frame) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", re, frame)
		}
	})
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
