package mercury

import (
	"bytes"
	"sync"
	"testing"

	"colza/internal/na"
)

// TestBulkChunkedPull moves a region larger than the pipelining chunk
// (8 MiB) so the offset/length loop is exercised.
func TestBulkChunkedPull(t *testing.T) {
	net := na.NewInprocNetwork()
	e1, _ := net.Listen("big1")
	e2, _ := net.Listen("big2")
	c1, c2 := New(e1), New(e2)
	defer c1.Close()
	defer c2.Close()

	region := make([]byte, bulkChunk+bulkChunk/2+17)
	for i := range region {
		region[i] = byte(i * 31)
	}
	h := c1.Expose(region)
	got, err := pullAll(c2, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, region) {
		t.Fatal("chunked pull corrupted data")
	}
}

// TestConcurrentBulkPulls has many goroutines pull distinct regions from
// the same owner simultaneously.
func TestConcurrentBulkPulls(t *testing.T) {
	net := na.NewInprocNetwork()
	e1, _ := net.Listen("cb1")
	e2, _ := net.Listen("cb2")
	c1, c2 := New(e1), New(e2)
	defer c1.Close()
	defer c2.Close()

	const n = 16
	handles := make([]Bulk, n)
	regions := make([][]byte, n)
	for i := 0; i < n; i++ {
		regions[i] = bytes.Repeat([]byte{byte(i + 1)}, 10000+i)
		handles[i] = c1.Expose(regions[i])
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := pullAll(c2, handles[i])
			if err != nil {
				t.Errorf("pull %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, regions[i]) {
				t.Errorf("pull %d: data mismatch", i)
			}
		}(i)
	}
	wg.Wait()
}

// TestBulkTamperedHandleRejected: a handle with a wrong size or id fails
// instead of returning someone else's memory.
func TestBulkTamperedHandleRejected(t *testing.T) {
	net := na.NewInprocNetwork()
	e1, _ := net.Listen("tam1")
	e2, _ := net.Listen("tam2")
	c1, c2 := New(e1), New(e2)
	defer c1.Close()
	defer c2.Close()

	h := c1.Expose([]byte("short"))
	wrongSize := h
	wrongSize.Size = 100
	if _, err := pullAll(c2, wrongSize); err == nil {
		t.Fatal("oversized pull accepted")
	}
	wrongID := h
	wrongID.ID = 9999
	if _, err := pullAll(c2, wrongID); err == nil {
		t.Fatal("bogus id accepted")
	}
	negative := h
	negative.Size = -3
	if _, err := pullAll(c2, negative); err == nil {
		t.Fatal("negative size accepted")
	}
}
