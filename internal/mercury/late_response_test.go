package mercury

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"colza/internal/na"
)

// slowSendEP holds a caller back after it sends a frame whose body starts
// with "race", long enough for the response to that frame to arrive, and
// for the call's timer to run out, before the caller starts waiting.
type slowSendEP struct{ na.Endpoint }

func (e slowSendEP) SendGather(to string, head, body []byte) error {
	err := e.Endpoint.SendGather(to, head, body)
	if bytes.HasPrefix(body, []byte("race")) {
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// TestLateResponseNeverReachesNextCall: calls wait on pooled response
// channels, so the channel a call gave up on is the one the next call
// draws. A response to the first call — one its handler held past the
// call's timeout, or one that arrived just as the timer ran out — must
// never be delivered to the second: each call gets its own response.
func TestLateResponseNeverReachesNextCall(t *testing.T) {
	net := na.NewInprocNetwork()
	e1, err := net.Listen("late-caller")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := net.Listen("late-callee")
	if err != nil {
		t.Fatal(err)
	}
	caller, callee := New(slowSendEP{e1}), New(e2)
	defer caller.Close()
	defer callee.Close()
	release := make(chan struct{})
	sent := make(chan struct{}, 1)
	callee.Register("echo", func(req Request) ([]byte, error) {
		if bytes.HasPrefix(req.Payload, []byte("held")) {
			<-release
			req.Defer(func() { sent <- struct{}{} })
		}
		return append([]byte("re:"), req.Payload...), nil
	})
	next := func(round int) {
		t.Helper()
		want := fmt.Sprintf("next-%d", round)
		out, err := caller.Call(callee.Addr(), "echo", []byte(want), time.Second)
		if err != nil {
			t.Fatalf("round %d: next call: %v", round, err)
		}
		if string(out) != "re:"+want {
			t.Fatalf("round %d: next call got %q, want %q: an earlier call's response", round, out, "re:"+want)
		}
		Recycle(out)
	}

	t.Run("held past the timeout", func(t *testing.T) {
		for round := 0; round < 5; round++ {
			_, err := caller.Call(callee.Addr(), "echo", []byte(fmt.Sprintf("held-%d", round)), 5*time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("round %d: held call: err = %v, want ErrTimeout", round, err)
			}
			release <- struct{}{}
			<-sent // the late response is on its way to the caller
			next(round)
		}
	})
	t.Run("arrives as the timer runs out", func(t *testing.T) {
		for round := 0; round < 40; round++ {
			// The response is in before the caller waits, and so is the
			// timeout: the call may report either, but not hand its
			// response to the next call.
			want := fmt.Sprintf("race-%d", round)
			out, err := caller.Call(callee.Addr(), "echo", []byte(want), time.Microsecond)
			if err == nil && string(out) != "re:"+want {
				t.Fatalf("round %d: racing call got %q", round, out)
			}
			if err != nil && !errors.Is(err, ErrTimeout) {
				t.Fatalf("round %d: racing call: %v", round, err)
			}
			next(round)
		}
	})
}
