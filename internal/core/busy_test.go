package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// busyPair builds a raw margo pair (no core server) so tests can script a
// "colza" provider handler that sheds on demand.
func busyPair(t *testing.T) (client *Client, server *margo.Instance, reg *obs.Registry) {
	t.Helper()
	net := na.NewInprocNetwork()
	se, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	ce, err := net.Listen("cli")
	if err != nil {
		t.Fatal(err)
	}
	sm, cm := margo.NewInstance(se), margo.NewInstance(ce)
	t.Cleanup(func() { cm.Finalize(); sm.Finalize() })
	client = NewClient(cm)
	reg = obs.NewRegistry()
	client.SetObserver(reg)
	return client, sm, reg
}

// TestClientBusyRetry: busy responses are retried in place — the caller of
// Client.call never sees a transient shed, the retry counter records every
// busy response (balanced against server-side sheds).
func TestClientBusyRetry(t *testing.T) {
	c, sm, reg := busyPair(t)
	var calls atomic.Int64
	sm.RegisterProviderRPC(ProviderID, "ping", func(req mercury.Request) ([]byte, error) {
		if calls.Add(1) <= 2 {
			return nil, &mercury.BusyError{RetryAfter: time.Millisecond}
		}
		return []byte("pong"), nil
	})
	out, err := c.call(sm.Addr(), "ping", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong" {
		t.Fatalf("out = %q", out)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 busy + 1 ok)", got)
	}
	if got := reg.Counter("core.client.retries.busy", "rpc", "ping").Value(); got != 2 {
		t.Fatalf("core.client.retries.busy = %d, want 2", got)
	}
}

// TestClientBusyExhaustion: a persistently loaded server eventually
// surfaces the busy error to the caller (Stage's outer retry policy takes
// over from there), after exactly clientBusyRetries in-place retries.
func TestClientBusyExhaustion(t *testing.T) {
	c, sm, reg := busyPair(t)
	var calls atomic.Int64
	sm.RegisterProviderRPC(ProviderID, "ping", func(req mercury.Request) ([]byte, error) {
		calls.Add(1)
		return nil, &mercury.BusyError{RetryAfter: time.Microsecond}
	})
	_, err := c.call(sm.Addr(), "ping", nil, 5*time.Second)
	if Classify(err) != ClassBusy {
		t.Fatalf("err = %v (class %v), want ClassBusy", err, Classify(err))
	}
	if got := calls.Load(); got != clientBusyRetries+1 {
		t.Fatalf("server saw %d calls, want %d", got, clientBusyRetries+1)
	}
	if got := reg.Counter("core.client.retries.busy", "rpc", "ping").Value(); got != clientBusyRetries+1 {
		t.Fatalf("core.client.retries.busy = %d, want %d (one per busy response)", got, clientBusyRetries+1)
	}
}

// TestClassifyBusy: the busy class is retryable, distinct from remote
// failures, and exposes the server's Retry-After hint.
func TestClassifyBusy(t *testing.T) {
	err := error(&mercury.BusyError{RetryAfter: 5 * time.Millisecond})
	if got := Classify(err); got != ClassBusy {
		t.Fatalf("Classify = %v, want ClassBusy", got)
	}
	if !Retryable(err) {
		t.Fatal("busy must be retryable")
	}
	if got := BusyRetryAfter(err); got != 5*time.Millisecond {
		t.Fatalf("BusyRetryAfter = %v, want 5ms", got)
	}
	if got := BusyRetryAfter(errors.New("other")); got != 0 {
		t.Fatalf("BusyRetryAfter(non-busy) = %v, want 0", got)
	}
	if ClassBusy.String() != "busy" {
		t.Fatalf("ClassBusy.String() = %q", ClassBusy.String())
	}
}

// TestBusyBackoffBounds: the sleep respects the hint, grows with attempts,
// and never exceeds 2x the 100ms ceiling (ceiling + full jitter).
func TestBusyBackoffBounds(t *testing.T) {
	hint := &mercury.BusyError{RetryAfter: 4 * time.Millisecond}
	for attempt := 0; attempt < 12; attempt++ {
		d := busyBackoff(hint, attempt)
		if d < 4*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v below the server hint", attempt, d)
		}
		if d > 200*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v above ceiling+jitter", attempt, d)
		}
	}
	if d := busyBackoff(errors.New("no hint"), 0); d < time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("hintless backoff = %v, want within [1ms, 2ms]", d)
	}
}
