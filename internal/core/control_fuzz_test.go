package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/mercury"
)

// jsonError reports whether err is one of the errors encoding/json returns
// for input that does not parse into the target.
func jsonError(err error) bool {
	var syntax *json.SyntaxError
	var typ *json.UnmarshalTypeError
	return errors.As(err, &syntax) || errors.As(err, &typ)
}

// FuzzPrepareMsg feeds handlePrepare, on a live two-server deployment, the
// JSON a peer sends as phase one of the activate 2PC. The seeds are the
// prepares a real Activate sent, captured at the server, and that view bent
// out of shape. Every input gets a vote or a JSON error, and a yes vote only
// ever goes to a well-formed view that names this server and matches its
// membership; it is aborted again, so every input meets the same state.
func FuzzPrepareMsg(f *testing.F) {
	d := deploy(f, 2)
	d.createEverywhere(f, "viz")
	srv := d.servers[0]
	prepareRPC := margo.ProviderRPCName(ProviderID, "prepare")
	var mu sync.Mutex
	var captured [][]byte
	srv.MI.Class().SetServeHook(func(req mercury.Request) error {
		if req.Name == prepareRPC {
			mu.Lock()
			captured = append(captured, bytes.Clone(req.Payload))
			mu.Unlock()
		}
		return nil
	})
	h := d.client.Handle("viz", srv.Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		f.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		f.Fatal(err)
	}
	srv.MI.Class().SetServeHook(nil)
	mu.Lock()
	defer mu.Unlock()
	if len(captured) == 0 {
		f.Fatal("the live activate sent server 0 no prepare")
	}
	live := captured[0]
	f.Add(live)
	var msg prepareMsg
	if err := json.Unmarshal(live, &msg); err != nil || len(msg.View.Members) != 2 {
		f.Fatalf("captured prepare %s does not decode to a two-member view: %v", live, err)
	}
	bent := func(change func(m *prepareMsg)) []byte {
		m := msg
		m.View.Members = append([]ServerInfo(nil), msg.View.Members...)
		change(&m)
		b, _ := json.Marshal(m)
		return b
	}
	f.Add(bent(func(m *prepareMsg) { m.View.Epoch++ }))
	f.Add(bent(func(m *prepareMsg) { m.View.Members[1] = m.View.Members[0] })) // one member twice, as a set the right size
	f.Add(bent(func(m *prepareMsg) { m.View.Members[1].Mona = m.View.Members[0].Mona }))
	f.Add(bent(func(m *prepareMsg) { m.View.Members[1].RPC = "" }))
	f.Add(bent(func(m *prepareMsg) { m.View.Members = m.View.Members[1:] }))
	f.Add(bent(func(m *prepareMsg) { m.Pipeline = "nope" }))
	f.Add(live[:len(live)/2])
	f.Add([]byte(`{"p":"viz","it":-1}`))
	f.Add([]byte(`{"p":"viz","v":{"members":"x"}}`))
	f.Add([]byte(`null`))

	p := srv.Provider
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := p.handlePrepare(mercury.Request{Payload: payload, From: "fuzz"})
		if err != nil {
			if !jsonError(err) {
				t.Fatalf("prepare %q: an error that is not JSON's: %v", payload, err)
			}
			return
		}
		var v voteMsg
		if err := json.Unmarshal(resp, &v); err != nil {
			t.Fatalf("prepare %q: response %q is not a vote", payload, resp)
		}
		if !v.Yes {
			return
		}
		var m prepareMsg
		if err := json.Unmarshal(payload, &m); err != nil {
			t.Fatalf("prepare %q voted yes but does not decode: %v", payload, err)
		}
		if err := m.View.check(); err != nil || m.View.RankOf(srv.Addr()) < 0 || !sameRPCSet(m.View, srv.Group.Members()) {
			t.Fatalf("prepare %q voted yes for view %+v (check: %v)", payload, m.View, err)
		}
		abort, _ := json.Marshal(epochMsg{Pipeline: m.Pipeline, Epoch: m.View.Epoch})
		if _, err := p.handleAbort(mercury.Request{Payload: abort}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzMembersMsg feeds the client's decoder of the members response what a
// server, or something posing as one, could answer. The seeds are a live
// deployment's answer and lists bent out of shape. Every input decodes to
// distinct non-empty addresses, or fails with a JSON error or
// ErrBadControlMsg.
func FuzzMembersMsg(f *testing.F) {
	d := deploy(f, 2)
	live, err := d.client.call(d.servers[0].Addr(), "members", nil, 2*time.Second)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(live)
	for _, s := range []string{`{"m":["a","a"]}`, `{"m":[""]}`, `{"m":null}`, `{"m":[1]}`, `{"m":"a"}`, `{"m":[`, `{}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		members, err := decodeMembersMsg(raw)
		if err != nil {
			if !jsonError(err) && !errors.Is(err, ErrBadControlMsg) {
				t.Fatalf("members %q: an untyped error: %v", raw, err)
			}
			return
		}
		seen := map[string]bool{}
		for _, m := range members {
			if m == "" || seen[m] {
				t.Fatalf("members %q decoded to %q", raw, members)
			}
			seen[m] = true
		}
	})
}
