package mercury

import (
	"errors"
	"sync"
	"testing"
	"time"

	"colza/internal/na"
	"colza/internal/obs"
)

// recordEP wraps an endpoint and records a mark when each send completes,
// so tests can assert ordering between the response frame leaving the
// endpoint and work deferred behind it.
type recordEP struct {
	na.Endpoint
	mu    sync.Mutex
	marks []string
}

func (r *recordEP) mark(s string) {
	r.mu.Lock()
	r.marks = append(r.marks, s)
	r.mu.Unlock()
}

func (r *recordEP) SendGather(to string, head, body []byte) error {
	err := r.Endpoint.SendGather(to, head, body)
	r.mark("send")
	return err
}

// TestDeferRunsAfterResponseSend pins the response-flush contract of
// Request.Defer: the deferred callback runs only after the response Send
// has returned — the ordering finishLeave relies on instead of a sleep.
func TestDeferRunsAfterResponseSend(t *testing.T) {
	n := na.NewInprocNetwork()
	epA, _ := n.Listen("a")
	epB, _ := n.Listen("b")
	rec := &recordEP{Endpoint: epB}
	a, b := New(epA), New(rec)
	t.Cleanup(func() { a.Close(); b.Close() })

	b.Register("leave", func(req Request) ([]byte, error) {
		req.Defer(func() { rec.mark("defer") })
		return []byte("ok"), nil
	})
	if _, err := a.Call(b.Addr(), "leave", nil, time.Second); err != nil {
		t.Fatal(err)
	}
	// The deferred mark may land shortly after the caller unblocks (it runs
	// on the serve goroutine); wait for it.
	deadline := time.Now().Add(time.Second)
	for {
		rec.mu.Lock()
		marks := append([]string(nil), rec.marks...)
		rec.mu.Unlock()
		if len(marks) >= 2 {
			if marks[len(marks)-2] != "send" || marks[len(marks)-1] != "defer" {
				t.Fatalf("marks = %v, want response send strictly before defer", marks)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("deferred callback never ran; marks = %v", marks)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeferOnZeroValueRequest: handlers invoked directly (tests, internal
// calls) get a Request with no serve context; Defer must still run the
// callback rather than drop it.
func TestDeferOnZeroValueRequest(t *testing.T) {
	var req Request
	done := make(chan struct{})
	req.Defer(func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("deferred fn never ran on zero-value Request")
	}
}

// TestRespondSendErrorCounted: a response that cannot leave the endpoint
// (here: the handler closes its own endpoint mid-call, so the caller only
// ever sees a timeout) must be counted server-side — the bug this pins
// discarded the Send error, leaving zero trace.
func TestRespondSendErrorCounted(t *testing.T) {
	n := na.NewInprocNetwork()
	epA, _ := n.Listen("a")
	epB, _ := n.Listen("b")
	a, b := New(epA), New(epB)
	t.Cleanup(func() { a.Close(); b.Close() })
	reg := obs.NewRegistry()
	b.SetObserver(reg)

	// The counter is pre-created at zero by SetObserver so a clean metrics
	// dump still exports it.
	if got := reg.Counter("mercury.respond.send_errors").Value(); got != 0 {
		t.Fatalf("pre-touched counter = %d, want 0", got)
	}

	served := make(chan struct{})
	b.Register("die", func(req Request) ([]byte, error) {
		epB.Close()
		close(served)
		return []byte("ok"), nil
	})
	_, err := a.Call(b.Addr(), "die", nil, 250*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("call error = %v, want timeout (response was undeliverable)", err)
	}
	<-served
	deadline := time.Now().Add(time.Second)
	for reg.Counter("mercury.respond.send_errors").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("respond send error never counted")
		}
		time.Sleep(time.Millisecond)
	}
}
