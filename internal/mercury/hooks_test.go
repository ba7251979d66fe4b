package mercury

import (
	"errors"
	"strings"
	"testing"
	"time"

	"colza/internal/na"
)

func hookPair(t *testing.T) (*Class, *Class) {
	t.Helper()
	n := na.NewInprocNetwork()
	epA, _ := n.Listen("a")
	epB, _ := n.Listen("b")
	a, b := New(epA), New(epB)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestCallHookFailsTargetedRPC(t *testing.T) {
	a, b := hookPair(t)
	b.Register("echo", func(req Request) ([]byte, error) { return req.Payload, nil })
	b.Register("other", func(req Request) ([]byte, error) { return req.Payload, nil })
	injected := errors.New("injected")
	a.SetCallHook(func(to, name string) error {
		if name == "echo" {
			return injected
		}
		return nil
	})
	if _, err := a.Call(b.Addr(), "echo", []byte("x"), time.Second); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	// Untargeted RPCs are unaffected.
	if out, err := a.Call(b.Addr(), "other", []byte("y"), time.Second); err != nil || string(out) != "y" {
		t.Fatalf("other = %q, %v", out, err)
	}
	a.SetCallHook(nil)
	if _, err := a.Call(b.Addr(), "echo", []byte("x"), time.Second); err != nil {
		t.Fatalf("after hook removal: %v", err)
	}
}

func TestServeHookRejectsBeforeHandler(t *testing.T) {
	a, b := hookPair(t)
	ran := false
	b.Register("guarded", func(req Request) ([]byte, error) { ran = true; return nil, nil })
	b.SetServeHook(func(req Request) error {
		if req.Name == "guarded" {
			return errors.New("server-side fault")
		}
		return nil
	})
	_, err := a.Call(b.Addr(), "guarded", nil, time.Second)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "server-side fault") {
		t.Fatalf("err = %v, want RemoteError from serve hook", err)
	}
	if ran {
		t.Fatal("handler must not run when the serve hook rejects")
	}
}

func TestRPCNameOf(t *testing.T) {
	frame := append(appendRequestHeader(nil, 7, "colza::prepare"), "payload"...)
	name, ok := RPCNameOf(frame)
	if !ok || name != "colza::prepare" {
		t.Fatalf("RPCNameOf = %q, %v", name, ok)
	}
	// Responses and junk are not requests.
	if _, ok := RPCNameOf([]byte{kindResponse, 0, 0, 0, 0, 0, 0, 0, 0, 0}); ok {
		t.Fatal("response frame classified as request")
	}
	if _, ok := RPCNameOf([]byte("short")); ok {
		t.Fatal("junk classified as request")
	}
}
