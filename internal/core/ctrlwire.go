package core

import (
	"bytes"
	"math"
)

// The per-iteration control frames (DESIGN.md §7.3): what the activate 2PC,
// the execute and deactivate broadcasts and the single-server activate send
// every iteration, to every server, in binary. Admin RPCs and checkpoint
// rounds stay JSON. Every frame starts with ctrlWireVersion; what follows is
// little-endian, with strings as u32 length then bytes (appendLenString):
//
//	view     u64 epoch, u32 count, count × member address
//	prepare  u8 version, pipeline, u64 iteration, view
//	vote     u8 version, u8 yes (0 or 1), reason
//	epoch    u8 version, pipeline, u64 iteration, u64 epoch
//	         (commit, abort, execute, deactivate, activate_solo)
//	members  u8 version, view (epoch 0): MemberView.Encode
//	result   u8 version, u32 count, count × (name, u64 float64 bits),
//	         u32 len(image), image, note
//
// A frame that does not decode — short, a length past its end, trailing
// bytes, another version, a JSON frame from an older build — is refused with
// ErrBadControlMsg. Decoding a frame that names only known things
// allocates nothing: a server finds the pipeline by the name's bytes in
// place (Provider.slotOf), takes a view whose members are exactly its
// membership as that membership's own list (decodePrepare), and a client
// takes summary names from its handle's intern table (decodeExecResult).

const ctrlWireVersion = 1

// viewSize is the encoded size of a view.
func viewSize(v MemberView) int {
	n := 8 + 4
	for _, m := range v.Members {
		n += 4 + len(m)
	}
	return n
}

func appendView(dst []byte, v MemberView) []byte {
	dst = appendU64(dst, v.Epoch)
	dst = appendU32(dst, uint32(len(v.Members)))
	for _, m := range v.Members {
		dst = appendLenString(dst, m)
	}
	return dst
}

// decodeView parses a view. When its members are, in order, exactly those
// of known, the view takes known itself and same is true: nothing is
// copied. Otherwise the addresses are copied into a list of the view's own.
// Either way p must hold nothing after the view.
func decodeView(p []byte, known []string) (v MemberView, same bool, err error) {
	if v.Epoch, p, err = readU64(p); err != nil {
		return MemberView{}, false, ErrBadControlMsg
	}
	count, body, err := readU32(p)
	// Every member costs at least its length word: a count the frame cannot
	// hold is refused before it sizes anything.
	if err != nil || int64(count) > int64(len(body)/4) {
		return MemberView{}, false, ErrBadControlMsg
	}
	same = int(count) == len(known)
	rest := body
	for i := 0; i < int(count); i++ {
		var m []byte
		if m, rest, err = readLenBytes(rest); err != nil {
			return MemberView{}, false, ErrBadControlMsg
		}
		same = same && string(m) == known[i]
	}
	if len(rest) != 0 {
		return MemberView{}, false, ErrBadControlMsg
	}
	if same {
		v.Members = known
		return v, true, nil
	}
	v.Members = make([]string, count)
	for i := range v.Members {
		var m []byte
		m, body, _ = readLenBytes(body) // checked above
		v.Members[i] = string(m)
	}
	return v, false, nil
}

// splitCtrlFrame checks a pipeline frame's (prepare, epoch) version and
// splits off its pipeline name, which aliases p, from the rest.
func splitCtrlFrame(p []byte) (pipeline, rest []byte, err error) {
	if len(p) < 1 || p[0] != ctrlWireVersion {
		return nil, nil, ErrBadControlMsg
	}
	if pipeline, rest, err = readLenBytes(p[1:]); err != nil {
		return nil, nil, ErrBadControlMsg
	}
	return pipeline, rest, nil
}

func prepareSize(pipeline string, v MemberView) int {
	return 1 + 4 + len(pipeline) + 8 + viewSize(v)
}

func appendPrepare(dst []byte, pipeline string, it uint64, v MemberView) []byte {
	dst = append(dst, ctrlWireVersion)
	dst = appendLenString(dst, pipeline)
	dst = appendU64(dst, it)
	return appendView(dst, v)
}

// decodePrepare parses what follows a prepare frame's pipeline name; known
// is the server's membership (decodeView).
func decodePrepare(rest []byte, known []string) (it uint64, v MemberView, same bool, err error) {
	if it, rest, err = readU64(rest); err != nil {
		return 0, MemberView{}, false, ErrBadControlMsg
	}
	v, same, err = decodeView(rest, known)
	return it, v, same, err
}

func appendVote(dst []byte, yes bool, reason string) []byte {
	b := byte(0)
	if yes {
		b = 1
	}
	dst = append(dst, ctrlWireVersion, b)
	return appendLenString(dst, reason)
}

// voteYes is the yes vote, encoded once: the response of every prepare that
// goes well. It must stay immutable (mercury only sends a response).
var voteYes = appendVote(nil, true, "")

// decodeVote parses a vote; the reason is copied only for a no.
func decodeVote(p []byte) (yes bool, reason string, err error) {
	if len(p) < 2 || p[0] != ctrlWireVersion || p[1] > 1 {
		return false, "", ErrBadControlMsg
	}
	r, rest, err := readLenBytes(p[2:])
	if err != nil || len(rest) != 0 {
		return false, "", ErrBadControlMsg
	}
	if p[1] == 1 {
		return true, "", nil
	}
	return false, string(r), nil
}

func epochSize(pipeline string) int { return 1 + 4 + len(pipeline) + 8 + 8 }

func appendEpoch(dst []byte, pipeline string, it, epoch uint64) []byte {
	dst = append(dst, ctrlWireVersion)
	dst = appendLenString(dst, pipeline)
	dst = appendU64(dst, it)
	return appendU64(dst, epoch)
}

// decodeEpoch parses an epoch frame: the pipeline name, aliasing p, the
// iteration and the epoch.
func decodeEpoch(p []byte) (pipeline []byte, it, epoch uint64, err error) {
	pipeline, rest, err := splitCtrlFrame(p)
	if err != nil {
		return nil, 0, 0, err
	}
	if it, rest, err = readU64(rest); err == nil {
		epoch, rest, err = readU64(rest)
	}
	if err != nil || len(rest) != 0 {
		return nil, 0, 0, ErrBadControlMsg
	}
	return pipeline, it, epoch, nil
}

// decodeMembersMsg decodes a members response, the current membership as
// an encoded view: ErrBadControlMsg for what does not decode, and for a
// list that does but names an empty address or one address twice.
func decodeMembersMsg(raw []byte) ([]string, error) {
	v, err := DecodeMemberView(raw)
	return v.Members, err
}

func appendExecResult(dst []byte, r ExecResult) []byte {
	dst = append(dst, ctrlWireVersion)
	dst = appendU32(dst, uint32(len(r.Summary)))
	for k, v := range r.Summary {
		dst = appendLenString(dst, k)
		dst = appendU64(dst, math.Float64bits(v))
	}
	dst = appendU32(dst, uint32(len(r.Image)))
	dst = append(dst, r.Image...)
	return appendLenString(dst, r.Note)
}

// decodeExecResult parses an execute result into values of the caller's
// own: summary names come from names (copies when it is nil), the image and
// the note are copied, so nothing aliases p. A name given twice is refused.
func decodeExecResult(p []byte, names *internTable) (ExecResult, error) {
	var r ExecResult
	if len(p) < 1 || p[0] != ctrlWireVersion {
		return r, ErrBadControlMsg
	}
	count, p, err := readU32(p[1:])
	// A pair is at least a length word and a float.
	if err != nil || int64(count) > int64(len(p)/12) {
		return r, ErrBadControlMsg
	}
	if count > 0 {
		r.Summary = make(map[string]float64, count)
	}
	for i := uint32(0); i < count; i++ {
		var k []byte
		var bits uint64
		if k, p, err = readLenBytes(p); err == nil {
			bits, p, err = readU64(p)
		}
		if err != nil {
			return ExecResult{}, ErrBadControlMsg
		}
		if _, dup := r.Summary[string(k)]; dup {
			return ExecResult{}, ErrBadControlMsg
		}
		r.Summary[names.intern(k)] = math.Float64frombits(bits)
	}
	var img, note []byte
	if img, p, err = readLenBytes(p); err == nil {
		note, p, err = readLenBytes(p)
	}
	if err != nil || len(p) != 0 {
		return ExecResult{}, ErrBadControlMsg
	}
	if len(img) > 0 {
		r.Image = bytes.Clone(img)
	}
	r.Note = string(note)
	return r, nil
}
