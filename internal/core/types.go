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
	"hash/fnv"
	"sort"
	"sync"

	"colza/internal/comm"
)

// ServerInfo identifies one staging server: the address of its RPC (Margo)
// endpoint and of its MoNA (collectives) endpoint. It is also the info
// RPC's reply.
type ServerInfo struct {
	RPC  string `json:"rpc"`
	Mona string `json:"mona"`
}

// MemberView is the frozen, ordered set of servers agreed on for an
// iteration. Rank order is the sort order of RPC addresses, so every party
// derives identical ranks.
type MemberView struct {
	Epoch   uint64       `json:"epoch"`
	Members []ServerInfo `json:"members"`
}

// Normalize sorts members by RPC address (rank order).
func (v *MemberView) Normalize() {
	sort.Slice(v.Members, func(i, j int) bool { return v.Members[i].RPC < v.Members[j].RPC })
}

// RankOf returns the rank of the server with the given RPC address, or -1.
func (v *MemberView) RankOf(rpcAddr string) int {
	for i, m := range v.Members {
		if m.RPC == rpcAddr {
			return i
		}
	}
	return -1
}

// MonaAddrs returns the ordered MoNA addresses of the view.
func (v *MemberView) MonaAddrs() []string {
	out := make([]string, len(v.Members))
	for i, m := range v.Members {
		out[i] = m.Mona
	}
	return out
}

// check reports what makes a view that came off the wire unusable, nil if
// nothing does: every member needs both addresses, and no address may be
// named twice — ranks are positions, so a repeated member would take two of
// them, and as a set the view would pass for a larger one.
func (v *MemberView) check() error {
	rpcs := make(map[string]bool, len(v.Members))
	monas := make(map[string]bool, len(v.Members))
	for _, m := range v.Members {
		if m.RPC == "" || m.Mona == "" {
			return fmt.Errorf("%w: a view member without an address", ErrBadControlMsg)
		}
		if rpcs[m.RPC] || monas[m.Mona] {
			return fmt.Errorf("%w: view member %s named twice", ErrBadControlMsg, m.RPC)
		}
		rpcs[m.RPC], monas[m.Mona] = true, true
	}
	return nil
}

// Encode serializes the view (for out-of-band sharing among client ranks).
func (v *MemberView) Encode() []byte {
	b, _ := json.Marshal(v)
	return b
}

// DecodeMemberView reverses MemberView.Encode.
func DecodeMemberView(data []byte) (MemberView, error) {
	var v MemberView
	if err := json.Unmarshal(data, &v); err != nil {
		return MemberView{}, fmt.Errorf("core: decode view: %w", err)
	}
	return v, nil
}

// CommID derives the MoNA communicator id for a pipeline iteration; it
// folds the pipeline name in so concurrently active pipelines cannot
// collide.
func CommID(pipeline string, epoch uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", pipeline, epoch)
	id := h.Sum64()
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
// the frozen view and the communicator spanning exactly that view.
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
	Summary map[string]float64 `json:"summary,omitempty"`
	Image   []byte             `json:"image,omitempty"` // encoded image (PNG), if produced
	Note    string             `json:"note,omitempty"`
}

// Backend is the pipeline interface users implement (the analog of
// colza::Backend). A pipeline with parallel operations has one instance on
// every server of the staging area; instances communicate through the
// IterationContext communicator.
//
// Lifecycle per iteration: Activate, any number of Stage calls, Execute,
// Deactivate. Destroy is called when the pipeline is removed.
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
