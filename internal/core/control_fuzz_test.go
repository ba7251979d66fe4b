package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/mercury"
)

// captureRPC re-registers the colza RPC rpc on srv so that every request
// payload, and every response, it serves is kept, and returns a function
// that restores h and hands both lists back.
func captureRPC(srv *Server, rpc string, h mercury.Handler) func() (reqs, resps [][]byte) {
	var mu sync.Mutex
	var reqs, resps [][]byte
	srv.MI.RegisterProviderRPC(ProviderID, rpc, func(req mercury.Request) ([]byte, error) {
		out, err := h(req)
		mu.Lock()
		reqs = append(reqs, bytes.Clone(req.Payload))
		if err == nil {
			resps = append(resps, bytes.Clone(out))
		}
		mu.Unlock()
		return out, err
	})
	return func() ([][]byte, [][]byte) {
		srv.MI.RegisterProviderRPC(ProviderID, rpc, h)
		mu.Lock()
		defer mu.Unlock()
		return reqs, resps
	}
}

// decodePrepareFrame decodes a whole prepare frame, copying its view.
func decodePrepareFrame(p []byte) (pipeline string, it uint64, v MemberView, err error) {
	name, rest, err := splitCtrlFrame(p)
	if err != nil {
		return "", 0, MemberView{}, err
	}
	it, v, _, err = decodePrepare(rest, nil)
	return string(name), it, v, err
}

// FuzzPrepareMsg feeds handlePrepare, on a live two-server deployment, the
// frame a peer sends as phase one of the activate 2PC. The seeds are the
// prepares a real Activate sent, captured at the server, that view bent out
// of shape, cut frames and the JSON an older build sent. Every input gets a
// vote or ErrBadControlMsg, and a yes vote only ever goes to a well-formed
// view that names this server and matches its membership; it is aborted
// again, so every input meets the same state.
func FuzzPrepareMsg(f *testing.F) {
	d := deploy(f, 2)
	d.createEverywhere(f, "viz")
	srv := d.servers[0]
	p := srv.Provider
	restore := captureRPC(srv, "prepare", p.handlePrepare)
	h := d.client.Handle("viz", srv.Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		f.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		f.Fatal(err)
	}
	captured, _ := restore()
	if len(captured) == 0 {
		f.Fatal("the live activate sent server 0 no prepare")
	}
	live := captured[0]
	f.Add(live)
	pipeline, it, view, err := decodePrepareFrame(live)
	if err != nil || pipeline != "viz" || len(view.Members) != 2 {
		f.Fatalf("captured prepare %q does not decode to a two-member view of viz: %v", live, err)
	}
	bent := func(change func(pipeline *string, v *MemberView)) []byte {
		name, v := pipeline, MemberView{Epoch: view.Epoch, Members: append([]string(nil), view.Members...)}
		change(&name, &v)
		return appendPrepare(nil, name, it, v)
	}
	f.Add(bent(func(_ *string, v *MemberView) { v.Epoch++ }))
	f.Add(bent(func(_ *string, v *MemberView) { v.Members[1] = v.Members[0] })) // one member twice, as a set the right size
	f.Add(bent(func(_ *string, v *MemberView) { v.Members[1] = "" }))
	f.Add(bent(func(_ *string, v *MemberView) { v.Members[0], v.Members[1] = v.Members[1], v.Members[0] })) // the right set, out of rank order
	f.Add(bent(func(_ *string, v *MemberView) { v.Members = v.Members[1:] }))
	f.Add(bent(func(name *string, _ *MemberView) { *name = "nope" }))
	f.Add(live[:len(live)/2])
	f.Add(live[:1+4+3+4])   // cut in the iteration
	f.Add(live[:1+4+3+8+4]) // cut in the view's epoch
	f.Add([]byte{ctrlWireVersion, 0xff, 0xff, 0xff, 0x7f})
	f.Add(append(bytes.Clone(live), 0))
	f.Add([]byte(`{"p":"viz","it":1,"v":{"epoch":1,"members":["a","b"]}}`)) // an older build's JSON prepare
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := p.handlePrepare(mercury.Request{Payload: payload, From: "fuzz"})
		if err != nil {
			if !errors.Is(err, ErrBadControlMsg) {
				t.Fatalf("prepare %q: an error that is not ErrBadControlMsg: %v", payload, err)
			}
			return
		}
		yes, _, err := decodeVote(resp)
		if err != nil {
			t.Fatalf("prepare %q: response %q is not a vote", payload, resp)
		}
		if !yes {
			return
		}
		name, it, v, err := decodePrepareFrame(payload)
		if err != nil {
			t.Fatalf("prepare %q voted yes but does not decode: %v", payload, err)
		}
		if err := v.check(); err != nil || v.RankOf(srv.Addr()) < 0 || !sameRPCSet(v, srv.Group.Members()) {
			t.Fatalf("prepare %q voted yes for view %+v (check: %v)", payload, v, err)
		}
		if _, err := p.handleAbort(mercury.Request{Payload: appendEpoch(nil, name, it, v.Epoch)}); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzActivateSolo feeds handleActivateSolo, on a live one-server
// deployment, the epoch frame a single-server handle sends to activate. The
// seeds are the payload a real SoloHandle.Activate sent, captured at the
// server, that payload bent out of shape, and an older build's JSON. Every
// input gets "ok" or an error; an activation it made is deactivated again,
// so no input finds the pipeline busy, and the server still answers
// members.
func FuzzActivateSolo(f *testing.F) {
	d := deploy(f, 1)
	d.createEverywhere(f, "viz")
	srv := d.servers[0]
	p := srv.Provider
	restore := captureRPC(srv, "activate_solo", p.handleActivateSolo)
	h := d.client.SoloHandle("viz", srv.Addr())
	h.SetTimeout(2 * time.Second)
	if err := h.Activate(1); err != nil {
		f.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		f.Fatal(err)
	}
	captured, _ := restore()
	if len(captured) != 1 {
		f.Fatalf("the live activate sent %d activate_solo payloads, want 1", len(captured))
	}
	live := captured[0]
	f.Add(live)
	name, it, epoch, err := decodeEpoch(live)
	if err != nil || string(name) != "viz" {
		f.Fatalf("captured payload %q does not decode to an activate of viz: %v", live, err)
	}
	f.Add(appendEpoch(nil, "nope", it, epoch))
	f.Add(appendEpoch(nil, "viz", 0, 0))
	f.Add(appendEpoch(nil, "viz", math.MaxUint64, math.MaxUint64))
	f.Add(live[:len(live)/2])
	f.Add(append(bytes.Clone(live), 0))
	f.Add([]byte(`{"p":"viz","it":1,"e":256}`)) // an older build's JSON
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
			if _, err := p.handleDeactivate(mercury.Request{Payload: payload}); err != nil {
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

// FuzzEpochFrame feeds the epoch frame — commit, abort, execute,
// deactivate — to a live one-server deployment's handlers and to its
// decoder. The seeds are the frames a real iteration sent, captured at the
// server, and those bent out of shape. Every frame decodes to exactly what
// encodes back to it or is refused with ErrBadControlMsg, and no handler
// panics on any input.
func FuzzEpochFrame(f *testing.F) {
	d := deploy(f, 1)
	d.createEverywhere(f, "viz")
	srv := d.servers[0]
	p := srv.Provider
	var restores []func() ([][]byte, [][]byte)
	for rpc, h := range map[string]mercury.Handler{"commit": p.handleCommit, "execute": p.handleExecute, "deactivate": p.handleDeactivate} {
		restores = append(restores, captureRPC(srv, rpc, h))
	}
	h := d.client.Handle("viz", srv.Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		f.Fatal(err)
	}
	if _, err := h.Execute(1); err != nil {
		f.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		f.Fatal(err)
	}
	for _, restore := range restores {
		reqs, _ := restore()
		if len(reqs) != 1 {
			f.Fatalf("captured %d requests of one RPC, want 1", len(reqs))
		}
		f.Add(reqs[0])
		f.Add(reqs[0][:len(reqs[0])-1])
		f.Add(append(bytes.Clone(reqs[0]), 0))
	}
	f.Add(appendEpoch(nil, "", 0, 0))
	f.Add([]byte(`{"p":"viz","it":1,"e":256}`))

	handlers := []mercury.Handler{p.handleCommit, p.handleAbort, p.handleExecute, p.handleDeactivate}
	f.Fuzz(func(t *testing.T, frame []byte) {
		name, it, epoch, err := decodeEpoch(frame)
		if err != nil {
			if !errors.Is(err, ErrBadControlMsg) {
				t.Fatalf("frame %q: an error that is not ErrBadControlMsg: %v", frame, err)
			}
		} else if again := appendEpoch(nil, string(name), it, epoch); !bytes.Equal(again, frame) {
			t.Fatalf("frame %q decodes to (%q, %d, %d), which encodes to %q", frame, name, it, epoch, again)
		}
		for _, h := range handlers {
			if _, herr := h(mercury.Request{Payload: frame, From: "fuzz"}); err != nil && !errors.Is(herr, ErrBadControlMsg) {
				t.Fatalf("frame %q does not decode, but a handler answered %v", frame, herr)
			}
		}
	})
}

// FuzzExecResult feeds the client's decoder of an execute result what a
// server, or something posing as one, could answer. The seeds are a live
// result (a summary of four values), results with an image and a note,
// cut frames and an older build's JSON. Every input decodes to a result
// that encodes and decodes back to itself, or is refused with
// ErrBadControlMsg.
func FuzzExecResult(f *testing.F) {
	d := deploy(f, 1)
	d.createEverywhere(f, "viz")
	srv := d.servers[0]
	restore := captureRPC(srv, "execute", srv.Provider.handleExecute)
	h := d.client.Handle("viz", srv.Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		f.Fatal(err)
	}
	res, err := h.Execute(1)
	if err != nil {
		f.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		f.Fatal(err)
	}
	_, resps := restore()
	if len(resps) != 1 || len(res) != 1 || len(res[0].Summary) != 4 {
		f.Fatalf("captured %d execute responses, results %+v", len(resps), res)
	}
	live := resps[0]
	f.Add(live)
	f.Add(live[:len(live)-1])
	f.Add(appendExecResult(nil, ExecResult{Image: []byte{0x89, 'P', 'N', 'G'}, Note: "rank 0"}))
	f.Add(appendExecResult(nil, ExecResult{Summary: map[string]float64{"nan": math.NaN(), "inf": math.Inf(-1)}}))
	f.Add(appendExecResult(nil, ExecResult{}))
	f.Add([]byte(`{"summary":{"triangles":3}}`))
	f.Add([]byte{ctrlWireVersion, 0xff, 0xff, 0xff, 0xff})
	f.Add(append([]byte{ctrlWireVersion, 1, 0, 0, 0, 8, 0, 0, 0}, "abcdefgh\x00\x00\x00"...)) // cut in a value
	pair := append([]byte{1, 0, 0, 0, 'a'}, make([]byte, 8)...)
	f.Add(append(append(append([]byte{ctrlWireVersion, 2, 0, 0, 0}, pair...), pair...), make([]byte, 8)...)) // a name twice
	names := &internTable{}
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := decodeExecResult(raw, names)
		if err != nil {
			if !errors.Is(err, ErrBadControlMsg) {
				t.Fatalf("result %q: an error that is not ErrBadControlMsg: %v", raw, err)
			}
			return
		}
		again, err := decodeExecResult(appendExecResult(nil, r), nil)
		if err != nil || len(again.Summary) != len(r.Summary) || !bytes.Equal(again.Image, r.Image) || again.Note != r.Note {
			t.Fatalf("result %q decodes to %+v, which does not survive a round trip: %+v, %v", raw, r, again, err)
		}
		for k, v := range r.Summary {
			if w, ok := again.Summary[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("result %q: summary %q is %v, then %v", raw, k, v, w)
			}
		}
	})
}

// FuzzMembersMsg feeds the client's decoder of the members response what a
// server, or something posing as one, could answer. The seeds are a live
// deployment's answer, lists bent out of shape and an older build's JSON.
// Every input decodes to distinct non-empty addresses, or fails with
// ErrBadControlMsg.
func FuzzMembersMsg(f *testing.F) {
	d := deploy(f, 2)
	live, err := d.client.call(d.servers[0].Addr(), "members", nil, 2*time.Second)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(live))
	f.Add(live[:len(live)-1])
	for _, bent := range [][]string{{"a", "a"}, {""}, nil} {
		v := MemberView{Members: bent}
		f.Add(v.Encode())
	}
	for _, s := range []string{`{"m":["a","b"]}`, `{"m":[`, `{}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		members, err := decodeMembersMsg(raw)
		if err != nil {
			if !errors.Is(err, ErrBadControlMsg) {
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
// handed out of band as a view. The seeds are a live view's Encode(), views
// bent out of shape and an older build's JSON. Every input decodes to a
// view with distinct, non-empty addresses that encodes back to itself, or
// fails with ErrBadControlMsg.
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
	f.Add(live[:len(live)-1])
	f.Add(append(bytes.Clone(live), 0))
	f.Add([]byte{ctrlWireVersion, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // a count no frame holds
	for _, s := range []string{`{"epoch":1,"members":["a"]}`, `{"members":[`, `{}`, `null`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		v, err := DecodeMemberView(raw)
		if err != nil {
			if !errors.Is(err, ErrBadControlMsg) {
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
		if again := v.Encode(); !bytes.Equal(again, raw) {
			t.Fatalf("view %q decodes to %+v, which encodes to %q", raw, v, again)
		}
	})
}

// TestControlRPCsRefuseJSON: a peer still speaking the JSON control plane
// of an older build is refused with ErrBadControlMsg by every converted RPC
// — whether its request reaches a handler or its response reaches a
// client's decoder — and, over the wire, gets that refusal as its remote
// error; nothing is activated.
func TestControlRPCsRefuseJSON(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	srv := d.servers[0]
	p := srv.Provider
	epochJSON := []byte(`{"p":"viz","it":1,"e":256}`)
	for rpc, c := range map[string]struct {
		h       mercury.Handler
		payload []byte
	}{
		"prepare":       {p.handlePrepare, []byte(`{"p":"viz","it":1,"v":{"epoch":256,"members":["` + srv.Addr() + `"]}}`)},
		"commit":        {p.handleCommit, epochJSON},
		"abort":         {p.handleAbort, epochJSON},
		"execute":       {p.handleExecute, epochJSON},
		"deactivate":    {p.handleDeactivate, epochJSON},
		"activate_solo": {p.handleActivateSolo, epochJSON},
	} {
		if _, err := c.h(mercury.Request{Payload: c.payload, From: "old"}); !errors.Is(err, ErrBadControlMsg) {
			t.Errorf("%s handler: JSON answered %v", rpc, err)
		}
		_, err := d.client.call(srv.Addr(), rpc, c.payload, time.Second)
		if err == nil || !strings.Contains(err.Error(), ErrBadControlMsg.Error()) {
			t.Errorf("%s over the wire: JSON answered %v", rpc, err)
		}
	}
	for what, decode := range map[string]func([]byte) error{
		"members": func(b []byte) error { _, err := decodeMembersMsg(b); return err },
		"view":    func(b []byte) error { _, err := DecodeMemberView(b); return err },
		"vote":    func(b []byte) error { _, _, err := decodeVote(b); return err },
		"result":  func(b []byte) error { _, err := decodeExecResult(b, nil); return err },
	} {
		if err := decode([]byte(`{"m":["a"],"y":true,"epoch":1,"members":["a"],"summary":{}}`)); !errors.Is(err, ErrBadControlMsg) {
			t.Errorf("%s decoder: JSON gave %v", what, err)
		}
	}
	if _, err := p.handleDeactivate(mercury.Request{Payload: appendEpoch(nil, "viz", 1, 256)}); !errors.Is(err, ErrNotActive) {
		t.Errorf("after the JSON requests, a deactivate answered %v: something was activated", err)
	}
}
