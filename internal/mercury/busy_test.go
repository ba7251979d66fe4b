package mercury

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestDispatcherRunsHandlers: a dispatcher that invokes run inline still
// serves requests correctly.
func TestDispatcherRunsHandlers(t *testing.T) {
	c1, c2 := pairT(t)
	var dispatched atomic.Int64
	c2.SetDispatcher(func(name string, t *Task) error {
		dispatched.Add(1)
		t.Go()
		return nil
	})
	c2.Register("echo", func(req Request) ([]byte, error) {
		return req.Payload, nil
	})
	out, err := c1.Call(c2.Addr(), "echo", []byte("hi"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hi" {
		t.Fatalf("out = %q", out)
	}
	if dispatched.Load() != 1 {
		t.Fatalf("dispatched = %d, want 1", dispatched.Load())
	}
}

// TestDispatcherShedSendsBusy: a dispatcher rejection must surface at the
// caller as ErrBusy carrying the Retry-After hint, without the handler
// ever running.
func TestDispatcherShedSendsBusy(t *testing.T) {
	c1, c2 := pairT(t)
	var ran atomic.Bool
	c2.SetDispatcher(func(name string, t *Task) error {
		return &BusyError{RetryAfter: 7 * time.Millisecond}
	})
	c2.Register("work", func(req Request) ([]byte, error) {
		ran.Store(true)
		return nil, nil
	})
	_, err := c1.Call(c2.Addr(), "work", nil, time.Second)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	var be *BusyError
	if !errors.As(err, &be) || be.RetryAfter != 7*time.Millisecond {
		t.Fatalf("err = %#v, want BusyError{RetryAfter: 7ms}", err)
	}
	if ran.Load() {
		t.Fatal("handler ran despite dispatcher shed")
	}
}

// TestDispatcherShedPlainError: a shed with a non-busy error still reaches
// the caller as a remote error (no silent drop, no hang).
func TestDispatcherShedPlainError(t *testing.T) {
	c1, c2 := pairT(t)
	c2.SetDispatcher(func(name string, t *Task) error {
		return errors.New("nope")
	})
	c2.Register("work", func(req Request) ([]byte, error) { return nil, nil })
	_, err := c1.Call(c2.Addr(), "work", nil, time.Second)
	if err == nil || errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want plain remote error", err)
	}
}

// TestHandlerBusyError: a handler may itself return ErrBusy (e.g. an
// application-level admission check) and the caller sees the busy class,
// not a generic remote error.
func TestHandlerBusyError(t *testing.T) {
	c1, c2 := pairT(t)
	c2.Register("work", func(req Request) ([]byte, error) {
		return nil, &BusyError{RetryAfter: time.Millisecond}
	})
	_, err := c1.Call(c2.Addr(), "work", nil, time.Second)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
}

// TestBusyErrorIs: the Is contract that core.Classify relies on.
func TestBusyErrorIs(t *testing.T) {
	var err error = &BusyError{RetryAfter: time.Second}
	if !errors.Is(err, ErrBusy) {
		t.Fatal("BusyError must match ErrBusy via errors.Is")
	}
	if (&BusyError{}).Error() == "" || ErrBusy.Error() == "" {
		t.Fatal("busy errors need messages")
	}
}
