package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

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
	p := srv.Provider
	var mu sync.Mutex
	var captured [][]byte
	srv.MI.RegisterProviderRPC(ProviderID, "prepare", func(req mercury.Request) ([]byte, error) {
		mu.Lock()
		captured = append(captured, bytes.Clone(req.Payload))
		mu.Unlock()
		return p.handlePrepare(req)
	})
	h := d.client.Handle("viz", srv.Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		f.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		f.Fatal(err)
	}
	srv.MI.RegisterProviderRPC(ProviderID, "prepare", p.handlePrepare)
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
		m.View.Members = append([]string(nil), msg.View.Members...)
		change(&m)
		b, _ := json.Marshal(m)
		return b
	}
	f.Add(bent(func(m *prepareMsg) { m.View.Epoch++ }))
	f.Add(bent(func(m *prepareMsg) { m.View.Members[1] = m.View.Members[0] })) // one member twice, as a set the right size
	f.Add(bent(func(m *prepareMsg) { m.View.Members[1] = "" }))
	f.Add([]byte(`{"p":"viz","it":1,"v":{"epoch":1,"members":[{"rpc":"a","mona":"b"}]}}`)) // the members of a two-endpoint view
	f.Add(bent(func(m *prepareMsg) { m.View.Members = m.View.Members[1:] }))
	f.Add(bent(func(m *prepareMsg) { m.Pipeline = "nope" }))
	f.Add(live[:len(live)/2])
	f.Add([]byte(`{"p":"viz","it":-1}`))
	f.Add([]byte(`{"p":"viz","v":{"members":"x"}}`))
	f.Add([]byte(`null`))

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

// FuzzActivateSolo feeds handleActivateSolo, on a live one-server
// deployment, the JSON a single-server handle sends to activate. The seeds
// are the payload a real SoloHandle.Activate sent, captured at the server,
// and that payload bent out of shape. Every input gets "ok" or an error; an
// activation it made is deactivated again, so no input finds the pipeline
// busy, and the server still answers members.
func FuzzActivateSolo(f *testing.F) {
	d := deploy(f, 1)
	d.createEverywhere(f, "viz")
	srv := d.servers[0]
	p := srv.Provider
	var mu sync.Mutex
	var captured [][]byte
	srv.MI.RegisterProviderRPC(ProviderID, "activate_solo", func(req mercury.Request) ([]byte, error) {
		mu.Lock()
		captured = append(captured, bytes.Clone(req.Payload))
		mu.Unlock()
		return p.handleActivateSolo(req)
	})
	h := d.client.SoloHandle("viz", srv.Addr())
	h.SetTimeout(2 * time.Second)
	if err := h.Activate(1); err != nil {
		f.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		f.Fatal(err)
	}
	srv.MI.RegisterProviderRPC(ProviderID, "activate_solo", p.handleActivateSolo)
	mu.Lock()
	defer mu.Unlock()
	if len(captured) != 1 {
		f.Fatalf("the live activate sent %d activate_solo payloads, want 1", len(captured))
	}
	live := captured[0]
	f.Add(live)
	var msg soloMsg
	if err := json.Unmarshal(live, &msg); err != nil || msg.Pipeline != "viz" {
		f.Fatalf("captured payload %s does not decode to an activate of viz: %v", live, err)
	}
	bent := func(change func(m *soloMsg)) []byte {
		m := msg
		change(&m)
		b, _ := json.Marshal(m)
		return b
	}
	f.Add(bent(func(m *soloMsg) { m.Pipeline = "nope" }))
	f.Add(bent(func(m *soloMsg) { m.Iteration, m.Epoch = 0, 0 }))
	f.Add(bent(func(m *soloMsg) { m.Iteration, m.Epoch = math.MaxUint64, math.MaxUint64 }))
	f.Add(live[:len(live)/2])
	f.Add([]byte(`{"p":"viz","it":-1}`))
	f.Add([]byte(`{"p":["viz"]}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := p.handleActivateSolo(mercury.Request{Payload: payload, From: "fuzz"})
		switch {
		case err != nil && bytes.Equal(payload, live):
			t.Fatalf("the live payload was refused: %v", err)
		case errors.Is(err, ErrBusy):
			t.Fatalf("activate %q found the pipeline busy: an earlier input's activation was left", payload)
		case err == nil && string(resp) != "ok":
			t.Fatalf("activate %q answered %q", payload, resp)
		case err == nil:
			var m soloMsg
			if err := json.Unmarshal(payload, &m); err != nil {
				t.Fatalf("activate %q succeeded but does not decode: %v", payload, err)
			}
			deact, _ := json.Marshal(epochMsg{Pipeline: m.Pipeline, Iteration: m.Iteration, Epoch: m.Epoch})
			if _, err := p.handleDeactivate(mercury.Request{Payload: deact}); err != nil {
				t.Fatalf("deactivating what %q activated: %v", payload, err)
			}
		}
		raw, err := d.client.call(srv.Addr(), "members", nil, 2*time.Second)
		if err != nil {
			t.Fatalf("members after activate %q: %v", payload, err)
		}
		if members, err := decodeMembersMsg(raw); err != nil || len(members) != 1 || members[0] != srv.Addr() {
			t.Fatalf("members after activate %q: %q, %v", payload, members, err)
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

// FuzzDecodeMemberView feeds DecodeMemberView what a client rank could be
// handed out of band as a view. The seeds are a live view's Encode() and
// views bent out of shape. Every input decodes to a view with distinct,
// non-empty addresses that encodes back to itself, or fails with a JSON
// error or ErrBadControlMsg.
func FuzzDecodeMemberView(f *testing.F) {
	d := deploy(f, 2)
	d.createEverywhere(f, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	view, err := h.Activate(1)
	if err != nil {
		f.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		f.Fatal(err)
	}
	live := view.Encode()
	f.Add(live)
	for _, bent := range []func(v *MemberView){
		func(v *MemberView) { v.Members[1] = v.Members[0] },
		func(v *MemberView) { v.Members = append(v.Members, v.Members[0]) }, // three ranks on two servers
		func(v *MemberView) { v.Members[0] = "" },
		func(v *MemberView) { v.Members = nil },
	} {
		v, err := DecodeMemberView(live)
		if err != nil {
			f.Fatal(err)
		}
		bent(&v)
		f.Add(v.Encode())
	}
	for _, s := range []string{`{"members":[1]}`, `{"members":"a"}`, `{"members":[`, `{}`, `null`,
		`{"members":[null]}`, `{"members":[{"rpc":"a","mona":"b"}]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		v, err := DecodeMemberView(raw)
		if err != nil {
			if !jsonError(err) && !errors.Is(err, ErrBadControlMsg) {
				t.Fatalf("view %q: an untyped error: %v", raw, err)
			}
			return
		}
		seen := map[string]bool{}
		for _, m := range v.Members {
			if m == "" || seen[m] {
				t.Fatalf("view %q decoded to %+v", raw, v.Members)
			}
			seen[m] = true
		}
		again, err := DecodeMemberView(v.Encode())
		if err != nil || again.Epoch != v.Epoch || len(again.Members) != len(v.Members) {
			t.Fatalf("view %q does not survive Encode: %+v, %v", raw, again, err)
		}
	})
}
