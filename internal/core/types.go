// Package core implements Colza itself: an elastic data-staging service
// for in situ analysis and visualization, following Dorier et al., "Colza:
// Enabling Elastic In Situ Visualization for High-Performance Computing
// Simulations" (IPDPS 2022).
//
// A Colza deployment is a set of server processes, each running a Provider
// that hosts user-defined analysis pipelines. Simulation processes interact
// with the pipelines through a distributed pipeline handle:
//
//	activate(iteration)   — freeze a consistent member view (2PC), create
//	                        the per-iteration MoNA communicator, and tell
//	                        every pipeline instance an iteration starts
//	stage(meta, data)     — expose a data block and have one server pull it
//	                        (RDMA-style), selected by block id
//	execute(iteration)    — run the analysis on the staged data everywhere
//	deactivate(iteration) — release staged data and unfreeze membership
//
// Between deactivate and the next activate, servers may freely join (via
// SSG) or leave (via the admin interface): that is the elasticity the paper
// contributes. Because SSG views are only eventually consistent, activate
// runs a two-phase commit across the client and the proposed servers, so
// every party pins the exact same ordered view for the iteration.
package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

	"colza/internal/comm"
)

// MemberView is the frozen, ordered set of servers agreed on for an
// iteration, by address: a server's one endpoint carries both its RPCs and
// its MoNA collectives. Rank order is the sort order of addresses, so every
// party derives identical ranks.
type MemberView struct {
	Epoch   uint64
	Members []string
}

// Normalize sorts members by address (rank order).
func (v *MemberView) Normalize() { sort.Strings(v.Members) }

// RankOf returns the rank of the server with the given address, or -1.
func (v *MemberView) RankOf(addr string) int { return slices.Index(v.Members, addr) }

// check reports what makes a view that came off the wire unusable, nil if
// nothing does: no member may be an empty address, and none may be named
// twice — ranks are positions, so a repeated member would take two of
// them, and as a set the view would pass for a larger one.
func (v *MemberView) check() error {
	seen := make(map[string]bool, len(v.Members))
	for _, m := range v.Members {
		if m == "" {
			return fmt.Errorf("%w: a view member without an address", ErrBadControlMsg)
		}
		if seen[m] {
			return fmt.Errorf("%w: view member %s named twice", ErrBadControlMsg, m)
		}
		seen[m] = true
	}
	return nil
}

// Encode serializes the view (for out-of-band sharing among client ranks):
// a version byte, then the view as a prepare frame carries it (ctrlwire.go).
func (v *MemberView) Encode() []byte {
	return appendView(append(make([]byte, 0, 1+viewSize(*v)), ctrlWireVersion), *v)
}

// DecodeMemberView reverses MemberView.Encode. What does not decode, and a
// view that names a member without an address or an address twice, is
// refused (ErrBadControlMsg).
func DecodeMemberView(data []byte) (MemberView, error) {
	err := ErrBadControlMsg
	var v MemberView
	if len(data) > 0 && data[0] == ctrlWireVersion {
		if v, _, err = decodeView(data[1:], nil); err == nil {
			err = v.check()
		}
	}
	if err != nil {
		return MemberView{}, fmt.Errorf("core: decode view: %w", err)
	}
	return v, nil
}

// CommID derives the MoNA communicator id for a pipeline iteration; it
// folds the pipeline name in so concurrently active pipelines cannot
// collide. The id is the 64-bit FNV-1a hash of "<pipeline>/<epoch>",
// computed in place.
func CommID(pipeline string, epoch uint64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	id := uint64(offset64)
	for i := 0; i < len(pipeline); i++ {
		id = (id ^ uint64(pipeline[i])) * prime64
	}
	var digits [20]byte
	for _, c := range strconv.AppendUint(append(digits[:0], '/'), epoch, 10) {
		id = (id ^ uint64(c)) * prime64
	}
	if id == 0 {
		id = 1
	}
	return id
}

// BlockMeta is the metadata accompanying a staged block (the paper's
// "field name, dimensions, type, etc."), and carries the block id used by
// the default stage-target selection policy.
type BlockMeta struct {
	Field   string     `json:"field"`             // field/array name
	BlockID int        `json:"block"`             // global block id
	Type    string     `json:"type"`              // payload encoding, e.g. "imagedata", "ugrid"
	Dims    [3]int     `json:"dims,omitempty"`    // grid dims for structured data
	Origin  [3]float64 `json:"origin,omitempty"`  // block origin in world space
	Spacing [3]float64 `json:"spacing,omitempty"` // grid spacing
}

// IterationContext is handed to a pipeline at activation: its rank within
// the frozen view and the communicator spanning exactly that view. The
// view's member list is shared with the server (it is often the server's
// membership list itself): a pipeline reads it and never modifies it.
type IterationContext struct {
	Iteration uint64
	Epoch     uint64
	Rank      int
	Size      int
	Comm      comm.Communicator
	View      MemberView
}

// ExecResult is what a pipeline instance returns from Execute. Rank 0 of a
// rendering pipeline typically carries the composited image.
type ExecResult struct {
	Summary map[string]float64
	Image   []byte // encoded image (PNG), if produced
	Note    string
}

// Backend is the pipeline interface users implement (the analog of
// colza::Backend). A pipeline with parallel operations has one instance on
// every server of the staging area; instances communicate through the
// IterationContext communicator.
//
// Lifecycle per iteration: Activate, any number of Stage calls, Execute,
// Deactivate. Destroy is called when the pipeline is removed.
//
// Staging is at-least-once: a stage RPC that timed out is retried, so
// Stage may see a block id of the active iteration twice. Nothing between
// the client and the backend collapses duplicates; a backend does it
// itself, on (iteration, BlockMeta.BlockID). The catalyst pipelines share
// one store that keeps the first copy, drops a second with the same bytes
// and refuses one with other bytes.
//
// The loan rule (DESIGN.md §7): the data slice passed to Stage is on loan
// for the duration of the call only. It may be the request frame, a pooled
// buffer the provider recycles when Stage returns, or — for a client on the
// same host — a read-only view of the client's shared arena, memory another
// process maps and can write while Stage runs. So a backend never writes
// data, copies what it keeps, and reads each byte at most once, validating
// its own copy rather than the view: a length checked in data and read
// again from data may have changed in between. The built-in pipelines and
// the benchmark's sink already do this — vtk.DecodeImageData and
// vtk.DecodeUnstructuredGrid copy every field once into their own
// structures and check those, and the sink's CRC reads each byte once.
// The catalyst store's duplicate check is a CRC over data next to the
// decode; it decides only whether a second copy matches the first, so a
// view rewritten in between can spoil that client's own block, nothing
// else.
type Backend interface {
	Activate(ctx IterationContext) error
	Stage(iteration uint64, meta BlockMeta, data []byte) error
	Execute(iteration uint64) (ExecResult, error)
	Deactivate(iteration uint64) error
	Destroy() error
}

// StatefulBackend is the optional extension for pipelines that keep state
// across iterations — the paper's future work (3): "enable state-full
// pipelines, for which shutting down a process requires data migration".
// The provider exports the state after every deactivate, and once more when
// the server is asked to leave, and replicates it to other members
// (checkpoint.go). When the exporting server is absent from a committed
// view — it left, or crashed — the one replica holder the view elects merges
// the state into its instance via ImportState, before Activate.
type StatefulBackend interface {
	Backend
	// ExportState serializes the instance's cross-iteration state.
	ExportState() ([]byte, error)
	// ImportState merges state exported by a departed peer instance. It may
	// see a newer round of an origin it has merged before (that origin came
	// back and departed again), never the same round twice.
	ImportState(data []byte) error
}

// Factory instantiates a pipeline from its JSON configuration string, the
// analog of loading a pipeline shared library and constructing its class.
type Factory func(config json.RawMessage) (Backend, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// RegisterPipelineType installs a pipeline factory under a type name. It
// is the in-process analog of placing a pipeline shared library on the
// library path: create_pipeline requests refer to the type name.
func RegisterPipelineType(typeName string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[typeName] = f
}

// LookupPipelineType returns the factory for a type name.
func LookupPipelineType(typeName string) (Factory, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[typeName]
	return f, ok
}

// PipelineTypes lists registered type names, sorted.
func PipelineTypes() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
