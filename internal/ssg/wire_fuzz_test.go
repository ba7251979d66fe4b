package ssg

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
)

// liveFrames runs a two-member group through a join and a few gossip
// rounds, with an hour between rounds of its own, and returns the messages
// that crossed the wire: the join request and reply, and the pings and
// their replies (the first ones piggyback the join). a is the bootstrap
// member, which the fuzzers feed.
func liveFrames(t testing.TB) (a *Group, joinReq, joinResp, pings, replies [][]byte) {
	net := na.NewInprocNetwork()
	cfg := Config{GossipPeriod: time.Hour, PingTimeout: time.Second, Seed: 1}
	mis := make([]*margo.Instance, 2)
	for i, name := range []string{"fuzz-a", "fuzz-b"} {
		ep, err := net.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		mis[i] = margo.NewInstance(ep)
	}
	t.Cleanup(func() {
		mis[1].Finalize()
		mis[0].Finalize()
	})
	a, err := Create(mis[0], "grp", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	capture := func(rpc string, h mercury.Handler, reqs, resps *[][]byte) {
		mis[0].RegisterProviderRPC(providerPrefix+"grp", rpc, func(req mercury.Request) ([]byte, error) {
			out, err := h(req)
			mu.Lock()
			*reqs = append(*reqs, bytes.Clone(req.Payload))
			*resps = append(*resps, bytes.Clone(out))
			mu.Unlock()
			return out, err
		})
	}
	capture("join", a.handleJoin, &joinReq, &joinResp)
	capture("ping", a.handlePing, &pings, &replies)
	b, err := Join(mis[1], "grp", mis[0].Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a.gossipRound() // a's queued updates ride back on b's replies
		b.gossipRound()
	}
	mis[0].RegisterProviderRPC(providerPrefix+"grp", "join", a.handleJoin)
	mis[0].RegisterProviderRPC(providerPrefix+"grp", "ping", a.handlePing)
	mu.Lock()
	defer mu.Unlock()
	if len(joinReq) != 1 || len(pings) != 3 {
		t.Fatalf("captured %d joins and %d pings, want 1 and 3", len(joinReq), len(pings))
	}
	return a, joinReq, joinResp, pings, replies
}

// FuzzPingMsg feeds a live member's ping handler what a peer could send
// as a ping. The seeds are live pings (with and without piggybacked
// updates), a live ping-req and join, and those cut or bent. Every input is
// answered with a reply that decodes, or refused with ErrBadMessage; one
// that decodes encodes back to itself.
func FuzzPingMsg(f *testing.F) {
	a, joinReq, _, pings, _ := liveFrames(f)
	for _, p := range append(pings, joinReq...) {
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	f.Add(appendPing(nil, pingMsg{From: "inproc://fuzz-b", Target: "inproc://fuzz-a"}))
	f.Add(appendPing(nil, pingMsg{From: "", Updates: []update{{Addr: "x", St: Dead}}}))
	f.Add(appendPing(nil, pingMsg{From: "x", Updates: []update{{Addr: "", St: Alive}}}))
	f.Add(appendPing(nil, pingMsg{From: "x", Updates: []update{{Addr: "y", St: Left + 1}}}))
	f.Add([]byte(`{"f":"inproc://fuzz-b","u":[{"a":"x","s":0,"i":1}]}`)) // an older build's JSON
	f.Fuzz(func(t *testing.T, payload []byte) {
		resp, err := a.handlePing(mercury.Request{Payload: payload})
		a.mu.Lock()
		msg, derr := a.decodePingLocked(payload, nil)
		a.mu.Unlock()
		if err != nil {
			if !errors.Is(err, ErrBadMessage) || derr == nil {
				t.Fatalf("ping %q: %v (decode: %v)", payload, err, derr)
			}
			return
		}
		if derr != nil {
			t.Fatalf("ping %q was answered but does not decode: %v", payload, derr)
		}
		if again := appendPing(nil, msg); !bytes.Equal(again, payload) {
			t.Fatalf("ping %q decodes to %+v, which encodes to %q", payload, msg, again)
		}
		a.mu.Lock()
		ack, _, err := a.decodeReplyLocked(resp, nil)
		a.mu.Unlock()
		if err != nil || !ack {
			t.Fatalf("ping %q answered %q: ack %v, %v", payload, resp, ack, err)
		}
	})
}

// FuzzPingReply feeds a member's decoder of ping replies (the ack and
// nack of a ping or ping-req) what a peer could answer. The seeds are live
// replies, with and without piggybacked updates, the encoded nack, and
// those cut. Every input decodes to what encodes back to it, or is refused
// with ErrBadMessage.
func FuzzPingReply(f *testing.F) {
	a, _, _, _, replies := liveFrames(f)
	for _, r := range replies {
		f.Add(r)
		f.Add(r[:len(r)-1])
	}
	f.Add(replyNack)
	f.Add([]byte{wireVersion, 2, 0, 0, 0, 0})
	f.Add([]byte(`{"k":true}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		a.mu.Lock()
		ack, ups, err := a.decodeReplyLocked(raw, nil)
		a.mu.Unlock()
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("reply %q: an untyped error: %v", raw, err)
			}
			return
		}
		if again := appendReply(nil, ack, ups); !bytes.Equal(again, raw) {
			t.Fatalf("reply %q decodes to %v %+v, which encodes to %q", raw, ack, ups, again)
		}
	})
}

// FuzzJoinMsg feeds a joiner's decoder of the bootstrap's join reply, and
// a live member's join handler, what a peer could send. The seeds are the
// live join request and reply, cut and bent. The handler answers a join it
// can decode with a reply that decodes, and refuses every other input with
// ErrBadMessage; the reply decoder decodes what encodes back to the input
// or refuses it with ErrBadMessage.
func FuzzJoinMsg(f *testing.F) {
	a, joinReq, joinResp, _, _ := liveFrames(f)
	for _, p := range append(joinReq, joinResp...) {
		f.Add(p)
		f.Add(p[:len(p)-1])
	}
	f.Add(appendJoinReply(nil, []update{{Addr: "x", St: Alive, Inc: 1}, {Addr: "x", St: Dead, Inc: 2}}))
	f.Add([]byte(`{"m":[{"a":"x","s":0,"i":1}]}`))
	joiner := newGroup(a.mi, "grp", Config{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		joiner.mu.Lock()
		ups, err := joiner.decodeJoinReplyLocked(raw)
		joiner.mu.Unlock()
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("join reply %q: an untyped error: %v", raw, err)
			}
		} else if again := appendJoinReply(nil, ups); !bytes.Equal(again, raw) {
			t.Fatalf("join reply %q decodes to %+v, which encodes to %q", raw, ups, again)
		}
		resp, err := a.handleJoin(mercury.Request{Payload: raw})
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("join %q: %v", raw, err)
			}
			return
		}
		joiner.mu.Lock()
		_, err = joiner.decodeJoinReplyLocked(resp)
		joiner.mu.Unlock()
		if err != nil {
			t.Fatalf("join %q answered %q, which does not decode: %v", raw, resp, err)
		}
	})
}
