// Package codec implements the block codecs of the staging wire (DESIGN.md
// §10). Simulation blocks are highly compressible — float grids are
// byte-wise redundant and temporally coherent — so a handle can stage
// through delta, which compresses each payload on the client before it is
// exposed for the server's bulk pull, cutting bytes-on-the-wire where the
// link, not the CPU, is the bottleneck (the Catalyst-ADIOS2 observation).
//
// A Codec transforms whole blocks: Encode appends the coded form of src to
// dst, Decode reverses it given the exact original length carried by the
// stage frame. Codecs are stateless and safe for concurrent use; the one
// piece of cross-iteration state — the previous block each delta encoding
// XORs against — lives in DeltaState, owned by the caller on each side of
// the wire, with bounded memory and explicit invalidation (see delta.go).
//
// Codecs, by the name Lookup resolves and, for the two the stage wire
// carries, the wire id:
//
//	raw     (0) — identity passthrough; what a handle stages by default
//	shuffle     — byte-shuffle by float stride, then per 4 KiB segment of
//	              the planes: one byte if constant, verbatim if
//	              incompressible, DEFLATE for the rest; for float grids
//	delta   (3) — the shuffle transform applied to the XOR against the
//	              previous iteration's block (zero base when no history)
//
// Wire ids 1 and 2 (the retired flate and shuffle wire codecs) are never
// reused: a stage frame naming either is malformed.
//
// Every codec must survive the shared conformance suite (codec_test.go):
// bit-identical round trips on float grids, zero-length and 1-byte blocks,
// incompressible data, 64 MiB blocks, and errors — never panics — on
// truncated or corrupted input.
package codec

import (
	"errors"
	"fmt"
)

// Codec IDs are wire values: they appear in the stage frame and must never
// be renumbered.
const (
	RawID   uint8 = 0
	DeltaID uint8 = 3
)

// ErrCorrupt reports undecodable codec input (truncated, malformed, or not
// matching the declared uncompressed length).
var ErrCorrupt = errors.New("codec: corrupt input")

// Codec is one block transform. Implementations are stateless and safe for
// concurrent use from any number of stage handlers.
type Codec interface {
	// MaxEncodedSize bounds Encode's output length for srcLen input bytes,
	// so callers can draw a right-sized pooled buffer.
	MaxEncodedSize(srcLen int) int
	// Encode appends the coded form of src to dst and returns the extended
	// slice. With MaxEncodedSize(len(src)) of spare capacity in dst the
	// well-tuned codecs do not allocate beyond pooled scratch.
	Encode(dst, src []byte) ([]byte, error)
	// Decode appends exactly srcLen decoded bytes to dst, where srcLen is
	// the original (pre-Encode) length carried out of band by the stage
	// frame. Input that is truncated, corrupt, or inconsistent with srcLen
	// returns ErrCorrupt — never panics, and never allocates proportionally
	// to lengths claimed by the (untrusted) input.
	Decode(dst, src []byte, srcLen int) ([]byte, error)
}

// Lookup resolves a codec by name ("raw", "shuffle" or "delta").
func Lookup(name string) (Codec, error) {
	switch name {
	case "raw":
		return Raw{}, nil
	case "shuffle":
		return Shuffle{}, nil
	case "delta":
		return Delta{}, nil
	}
	return nil, fmt.Errorf("codec: unknown codec %q (known: raw, shuffle, delta)", name)
}

// Raw is the identity codec: what a handle with no codec named stages
// through, and what a failing encode degrades to.
type Raw struct{}

func (Raw) MaxEncodedSize(n int) int               { return n }
func (Raw) Encode(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }

func (Raw) Decode(dst, src []byte, srcLen int) ([]byte, error) {
	if len(src) != srcLen {
		return nil, ErrCorrupt
	}
	return append(dst, src...), nil
}
