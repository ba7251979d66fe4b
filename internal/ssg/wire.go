package ssg

import (
	"encoding/binary"
	"errors"
)

// The SWIM messages travel in binary: a ping goes to a random peer every
// gossip period on every member, so it costs no encoder and, when nothing
// is gossiped, no allocation. Every message starts with wireVersion; what
// follows is little-endian, with addresses as u32 length then bytes:
//
//	update   address, u8 state (alive, suspect, dead, left), u64 incarnation
//	ping     u8 version, from, u64 incarnation (join only), target
//	         (ping-req only, else empty), u32 count, count × update
//	reply    u8 version, u8 ack (0 or 1), u32 count, count × update
//	join     u8 version, u32 count, count × update (the bootstrap's view)
//
// A message that does not decode — short, a length past its end, trailing
// bytes, an empty address, an unknown state, another version — is refused
// with ErrBadMessage. Decoding takes an address the member table holds as
// the table's own string (addrLocked), so a message about known members
// allocates nothing.

const wireVersion = 1

// ErrBadMessage reports a SWIM message that does not decode.
var ErrBadMessage = errors.New("ssg: malformed message")

// pingMsg is the payload of ping / ping-req / join RPCs.
type pingMsg struct {
	From    string
	Inc     uint64 // join only: the joiner's incarnation
	Target  string // ping-req only
	Updates []update
}

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

func appendAddr(dst []byte, a string) []byte {
	return append(appendU32(dst, uint32(len(a))), a...)
}

func appendUpdates(dst []byte, ups []update) []byte {
	dst = appendU32(dst, uint32(len(ups)))
	for _, u := range ups {
		dst = appendAddr(dst, u.Addr)
		dst = append(dst, byte(u.St))
		dst = binary.LittleEndian.AppendUint64(dst, u.Inc)
	}
	return dst
}

func appendPing(dst []byte, m pingMsg) []byte {
	dst = append(dst, wireVersion)
	dst = appendAddr(dst, m.From)
	dst = binary.LittleEndian.AppendUint64(dst, m.Inc)
	dst = appendAddr(dst, m.Target)
	return appendUpdates(dst, m.Updates)
}

func appendReply(dst []byte, ack bool, ups []update) []byte {
	b := byte(0)
	if ack {
		b = 1
	}
	return appendUpdates(append(dst, wireVersion, b), ups)
}

func appendJoinReply(dst []byte, ups []update) []byte {
	return appendUpdates(append(dst, wireVersion), ups)
}

// The replies that carry no update, encoded once. Like every shared
// response they must stay immutable (mercury only sends a response).
var (
	replyAck  = appendReply(nil, true, nil)
	replyNack = appendReply(nil, false, nil)
)

// wireReader reads a message front to back; the first failure sticks, and
// every read after it yields zero values.
type wireReader struct {
	p   []byte
	bad bool
}

func (r *wireReader) u8() byte {
	if r.bad || len(r.p) < 1 {
		r.bad = true
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func (r *wireReader) u32() uint32 {
	if r.bad || len(r.p) < 4 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(r.p)
	r.p = r.p[4:]
	return v
}

func (r *wireReader) u64() uint64 {
	if r.bad || len(r.p) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v
}

func (r *wireReader) bytes() []byte {
	n := r.u32()
	if r.bad || int64(n) > int64(len(r.p)) {
		r.bad = true
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

// done reports whether the whole message decoded, with nothing left over.
func (r *wireReader) done() error {
	if r.bad || len(r.p) != 0 {
		return ErrBadMessage
	}
	return nil
}

// addrLocked returns an address read off the wire as the member table's
// own string when the table knows it, a copy otherwise; "" for an empty
// one. The caller holds g.mu.
func (g *Group) addrLocked(b []byte) string {
	if m, ok := g.members[string(b)]; ok {
		return m.addr
	}
	return string(b)
}

// updatesLocked reads a count-prefixed update list, appending to dst. An
// update names a member and a state SWIM knows. The caller holds g.mu.
func (g *Group) updatesLocked(r *wireReader, dst []update) []update {
	n := r.u32()
	// Every update takes at least 13 bytes: a count the message cannot hold
	// is refused before it sizes anything.
	if int64(n) > int64(len(r.p)/13) {
		r.bad = true
	}
	for i := uint32(0); i < n && !r.bad; i++ {
		a := r.bytes()
		st := State(r.u8())
		inc := r.u64()
		if len(a) == 0 || st > Left {
			r.bad = true
			break
		}
		dst = append(dst, update{Addr: g.addrLocked(a), St: st, Inc: inc})
	}
	return dst
}

// decodePingLocked parses a ping, ping-req or join message, appending its
// updates to ups. The sender's address must not be empty. The caller holds
// g.mu.
func (g *Group) decodePingLocked(p []byte, ups []update) (pingMsg, error) {
	r := wireReader{p: p}
	if r.u8() != wireVersion {
		return pingMsg{}, ErrBadMessage
	}
	from := r.bytes()
	m := pingMsg{Inc: r.u64()}
	target := r.bytes()
	m.Updates = g.updatesLocked(&r, ups)
	if err := r.done(); err != nil || len(from) == 0 {
		return pingMsg{}, ErrBadMessage
	}
	m.From, m.Target = g.addrLocked(from), g.addrLocked(target)
	return m, nil
}

// decodeReplyLocked parses a ping reply, appending its updates to ups. The
// caller holds g.mu.
func (g *Group) decodeReplyLocked(p []byte, ups []update) (ack bool, _ []update, err error) {
	r := wireReader{p: p}
	if r.u8() != wireVersion {
		return false, ups, ErrBadMessage
	}
	a := r.u8()
	ups = g.updatesLocked(&r, ups)
	if err := r.done(); err != nil || a > 1 {
		return false, ups, ErrBadMessage
	}
	return a == 1, ups, nil
}

// decodeJoinReplyLocked parses a join reply. The caller holds g.mu.
func (g *Group) decodeJoinReplyLocked(p []byte) ([]update, error) {
	r := wireReader{p: p}
	if r.u8() != wireVersion {
		return nil, ErrBadMessage
	}
	ups := g.updatesLocked(&r, nil)
	return ups, r.done()
}
