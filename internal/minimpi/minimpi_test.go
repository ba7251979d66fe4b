package minimpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"colza/internal/collectives"
)

// onAll runs fn concurrently on every rank.
func onAll(t *testing.T, comms []*Comm, fn func(c *Comm) error) {
	t.Helper()
	var wg sync.WaitGroup
	for _, c := range comms {
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			if err := fn(c); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
		}(c)
	}
	wg.Wait()
}

func TestWorldSendRecv(t *testing.T) {
	w := World(2)
	defer w[0].Finalize()
	go w[0].Send(1, 9, []byte("static"))
	got, err := w[1].Recv(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "static" {
		t.Fatalf("got %q", got)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := World(2)
	defer w[0].Finalize()
	buf := []byte("frozen")
	if err := w[0].Send(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, _ := w[1].Recv(0, 1)
	if string(got) != "frozen" {
		t.Fatalf("receiver saw mutation: %q", got)
	}
}

func TestCollectivesOnWorld(t *testing.T) {
	n := 9
	w := World(n)
	defer w[0].Finalize()
	onAll(t, w, func(c *Comm) error {
		var in []byte
		if c.Rank() == 3 {
			in = []byte("payload")
		}
		got, err := c.Bcast(3, 10, in)
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			return fmt.Errorf("bcast got %q", got)
		}
		mine := []byte{byte(c.Rank())}
		red, err := c.Reduce(0, 11, mine, collectives.XorBytes)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			want := byte(0)
			for r := 0; r < n; r++ {
				want ^= byte(r)
			}
			if red[0] != want {
				return fmt.Errorf("reduce got %d want %d", red[0], want)
			}
		}
		return c.Barrier(12)
	})
}

func TestFinalizeUnblocksEverything(t *testing.T) {
	w := World(2)
	errCh := make(chan error, 1)
	go func() {
		_, err := w[1].Recv(0, 99)
		errCh <- err
	}()
	w[0].Finalize()
	if err := <-errCh; !errors.Is(err, ErrFinalized) {
		t.Fatalf("err = %v, want ErrFinalized", err)
	}
	if err := w[0].Send(1, 0, nil); !errors.Is(err, ErrFinalized) {
		t.Fatalf("Send after finalize = %v, want ErrFinalized", err)
	}
}

func TestRankValidation(t *testing.T) {
	w := World(2)
	defer w[0].Finalize()
	if err := w[0].Send(5, 0, nil); !errors.Is(err, ErrRank) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w[0].Recv(-2, 0); !errors.Is(err, ErrRank) {
		t.Fatalf("err = %v", err)
	}
}

// Property: allreduce(xor) equals the fold of all inputs for arbitrary
// world sizes and payload bytes.
func TestQuickAllReduce(t *testing.T) {
	f := func(nRaw uint8, b byte) bool {
		n := int(nRaw%7) + 1
		w := World(n)
		defer w[0].Finalize()
		want := byte(0)
		for r := 0; r < n; r++ {
			want ^= b + byte(r)
		}
		results := make([][]byte, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				results[r], errs[r] = w[r].AllReduce(1, []byte{b + byte(r)}, collectives.XorBytes)
			}(r)
		}
		wg.Wait()
		for r := 0; r < n; r++ {
			if errs[r] != nil || len(results[r]) != 1 || results[r][0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
