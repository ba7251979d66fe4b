// Package codec implements the pluggable block codecs of the staging wire
// (DESIGN.md §10). Simulation blocks are highly compressible — float grids
// are byte-wise redundant and temporally coherent — so the stage hot path
// compresses payloads on the client before exposing them for the server's
// bulk pull, cutting bytes-on-the-wire where the link, not the CPU, is the
// bottleneck (the Catalyst-ADIOS2 observation).
//
// A Codec transforms whole blocks: Encode appends the coded form of src to
// dst, Decode reverses it given the exact original length carried by the
// stage frame. Codecs are stateless and safe for concurrent use; the one
// piece of cross-iteration state — the previous block each delta encoding
// XORs against — lives in DeltaState, owned by the caller on each side of
// the wire, with bounded memory and explicit invalidation (see delta.go).
//
// Registered codecs:
//
//	raw     (0) — identity passthrough; the fallback every peer accepts
//	flate   (1) — stdlib DEFLATE at BestSpeed, pooled writers/readers
//	shuffle (2) — byte-shuffle by float stride, then per 4 KiB segment of
//	              the planes: one byte if constant, verbatim if
//	              incompressible, DEFLATE for the rest; for float grids
//	delta   (3) — the shuffle transform applied to the XOR against the
//	              previous iteration's block (zero base when no history)
//
// Every codec must survive the shared conformance suite (codec_test.go):
// bit-identical round trips on float grids, zero-length and 1-byte blocks,
// incompressible data, 64 MiB blocks, and errors — never panics — on
// truncated or corrupted input.
package codec

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Codec IDs are wire values: they appear in the stage frame and must never
// be renumbered.
const (
	RawID     uint8 = 0
	FlateID   uint8 = 1
	ShuffleID uint8 = 2
	DeltaID   uint8 = 3
)

// ErrCorrupt reports undecodable codec input (truncated, malformed, or not
// matching the declared uncompressed length).
var ErrCorrupt = errors.New("codec: corrupt input")

// Codec is one block transform. Implementations are stateless and safe for
// concurrent use from any number of stage handlers.
type Codec interface {
	// ID is the codec's wire identifier.
	ID() uint8
	// Name is the codec's stable human name (flag values, metric labels).
	Name() string
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

var (
	regMu    sync.RWMutex
	registry = map[uint8]Codec{}
	byName   = map[string]Codec{}
)

// Register installs a codec under its ID and name. The built-in codecs
// register at init; tests may add more.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[c.ID()] = c
	byName[c.Name()] = c
}

// ByID returns the codec registered under id.
func ByID(id uint8) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := registry[id]
	return c, ok
}

// ByName returns the codec registered under name ("raw", "flate", ...).
func ByName(name string) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byName[name]
	return c, ok
}

// Lookup resolves a codec by name with a helpful error listing the choices.
func Lookup(name string) (Codec, error) {
	if c, ok := ByName(name); ok {
		return c, nil
	}
	return nil, fmt.Errorf("codec: unknown codec %q (known: %v)", name, Names())
}

// IDs lists the registered codec IDs, ascending.
func IDs() []uint8 {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]uint8, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Names lists the registered codec names in ID order.
func Names() []string {
	out := make([]string, 0, 4)
	for _, id := range IDs() {
		c, _ := ByID(id)
		out = append(out, c.Name())
	}
	return out
}

// All returns the registered codecs in ID order.
func All() []Codec {
	ids := IDs()
	out := make([]Codec, 0, len(ids))
	for _, id := range ids {
		c, _ := ByID(id)
		out = append(out, c)
	}
	return out
}

// Raw is the identity codec: what a handle with no codec named stages
// through, and what a failing encode degrades to.
type Raw struct{}

func (Raw) ID() uint8                              { return RawID }
func (Raw) Name() string                           { return "raw" }
func (Raw) MaxEncodedSize(n int) int               { return n }
func (Raw) Encode(dst, src []byte) ([]byte, error) { return append(dst, src...), nil }

func (Raw) Decode(dst, src []byte, srcLen int) ([]byte, error) {
	if len(src) != srcLen {
		return nil, ErrCorrupt
	}
	return append(dst, src...), nil
}

func init() {
	Register(Raw{})
	Register(stdFlate) // shared with the Shuffle/Delta entropy backend
	Register(Shuffle{})
	Register(Delta{})
}
