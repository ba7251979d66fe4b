package mercury

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"colza/internal/na"
)

func pullPair(t *testing.T) (owner, puller *Class) {
	t.Helper()
	net := na.NewInprocNetwork()
	e1, err := net.Listen("own")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := net.Listen("pul")
	if err != nil {
		t.Fatal(err)
	}
	owner, puller = New(e1), New(e2)
	t.Cleanup(func() { puller.Close(); owner.Close() })
	return owner, puller
}

// TestPullBulkInto lands a multi-chunk region in a caller-provided buffer,
// with a shrunken chunk size so the concurrent path runs on small data.
func TestPullBulkInto(t *testing.T) {
	owner, puller := pullPair(t)
	defer VerifyNoExposedLeaks(t, owner, puller)
	puller.SetBulkChunk(1024)
	defer puller.SetBulkChunk(0)

	region := make([]byte, 10_000)
	for i := range region {
		region[i] = byte(i * 13)
	}
	h := owner.Expose(region)
	defer owner.Release(h)

	dst := make([]byte, len(region))
	if err := puller.PullBulkInto(h, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, region) {
		t.Fatal("concurrent chunked pull corrupted data")
	}

	// Wrong-length destination is rejected before any network traffic.
	if err := puller.PullBulkInto(h, make([]byte, 5)); !errors.Is(err, ErrBadBulk) {
		t.Fatalf("short dst: %v", err)
	}
}

// TestPullAfterReleaseFails is the use-after-release guard: once released,
// a handle must never hand out bytes again (the buffer may have been
// recycled into a pool).
func TestPullAfterReleaseFails(t *testing.T) {
	owner, puller := pullPair(t)
	defer VerifyNoExposedLeaks(t, owner, puller)

	h := owner.Expose([]byte("secret"))
	owner.Release(h)
	if _, err := pullAll(puller, h); err == nil {
		t.Fatal("pull after release succeeded")
	}
	dst := make([]byte, h.Size)
	if err := puller.PullBulkInto(h, dst); err == nil {
		t.Fatal("pull-into after release succeeded")
	}
	if _, err := pullAll(owner, h); err == nil {
		t.Fatal("self pull after release succeeded")
	}
}

// TestPullRangeJoinsWorkersOnError: when one chunk fails mid-pull (region
// released under a concurrent pull), PullBulkInto must still join all workers
// before returning so dst is never written afterwards. The -race detector
// watches the recycle write below.
func TestPullRangeJoinsWorkersOnError(t *testing.T) {
	owner, puller := pullPair(t)
	defer VerifyNoExposedLeaks(t, owner, puller)
	puller.SetBulkChunk(512)
	defer puller.SetBulkChunk(0)

	region := make([]byte, 64<<10)
	for round := 0; round < 20; round++ {
		h := owner.Expose(region)
		dst := make([]byte, len(region))
		done := make(chan error, 1)
		go func() { done <- puller.PullBulkInto(h, dst) }()
		owner.Release(h) // races with the pull: some chunks may fail
		// Success and a remote bad-bulk error are both legal depending on
		// timing; what is not legal is any write to dst after PullBulkInto
		// returned.
		_ = <-done
		for i := range dst {
			dst[i] = 0xEE // recycle: -race flags late workers
		}
	}
}

// TestExposedBytes tracks the gauge helper through expose/release cycles.
func TestExposedBytes(t *testing.T) {
	owner, _ := pullPair(t)
	if n := owner.ExposedBytes(); n != 0 {
		t.Fatalf("fresh class exposes %d bytes", n)
	}
	h1 := owner.Expose(make([]byte, 100))
	h2 := owner.Expose(make([]byte, 28))
	if n := owner.ExposedBytes(); n != 128 {
		t.Fatalf("exposed = %d, want 128", n)
	}
	owner.Release(h1)
	if n := owner.ExposedBytes(); n != 28 {
		t.Fatalf("exposed = %d, want 28", n)
	}
	owner.Release(h2)
	if n := owner.ExposedBytes(); n != 0 {
		t.Fatalf("exposed = %d, want 0", n)
	}
	// Double release is a no-op, not a negative balance.
	owner.Release(h2)
	if n := owner.ExposedBytes(); n != 0 {
		t.Fatalf("exposed after double release = %d", n)
	}
}

// TestDecodeBulkNegativeSize: a corrupted handle claiming a negative size
// must be rejected at decode time.
func TestDecodeBulkNegativeSize(t *testing.T) {
	b := Bulk{Addr: "x", ID: 1, Size: 5}
	enc := b.Encode()
	// Overwrite the size field with -1.
	for i := 8; i < 16; i++ {
		enc[i] = 0xFF
	}
	if _, _, err := DecodeBulk(enc); !errors.Is(err, ErrBadBulk) {
		t.Fatalf("negative size decoded: %v", err)
	}
}

// TestConcurrentPullBulkIntoSharedRegion: many pullers against one exposure
// must each see a faithful copy (no cross-talk through pooled frames).
func TestConcurrentPullBulkIntoSharedRegion(t *testing.T) {
	owner, puller := pullPair(t)
	defer VerifyNoExposedLeaks(t, owner, puller)
	puller.SetBulkChunk(2048)
	defer puller.SetBulkChunk(0)

	region := make([]byte, 32<<10)
	for i := range region {
		region[i] = byte(i * 7)
	}
	h := owner.Expose(region)
	defer owner.Release(h)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, len(region))
			if err := puller.PullBulkInto(h, dst); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(dst, region) {
				t.Error("concurrent pull corrupted data")
			}
		}()
	}
	wg.Wait()
}
