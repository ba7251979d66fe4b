package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"colza/internal/bufpool"
	"colza/internal/codec"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/mona"
	"colza/internal/obs"
	"colza/internal/ssg"
)

// Provider RPC names (provider id "colza") and admin RPC names (provider
// id "colza-admin").
const (
	ProviderID = "colza"
	AdminID    = "colza-admin"
)

// Errors surfaced by provider handlers.
var (
	// ErrNoSuchPipeline indicates the request names an unknown pipeline.
	ErrNoSuchPipeline = errors.New("colza: no such pipeline")
	// ErrNotActive indicates stage/execute/deactivate outside an active
	// iteration.
	ErrNotActive = errors.New("colza: pipeline has no active iteration")
	// ErrBusy indicates an activate conflicts with an iteration in
	// progress.
	ErrBusy = errors.New("colza: pipeline already active")
	// ErrNotPrepared indicates a commit without a matching prepare.
	ErrNotPrepared = errors.New("colza: commit without matching prepare")
	// ErrBadControlMsg indicates a control-plane message that parsed but
	// cannot be acted on: a view or members list with an empty or repeated
	// address.
	ErrBadControlMsg = errors.New("colza: malformed control message")
)

// Admin request payloads (JSON, DESIGN.md §7.3); the per-iteration control
// frames are in ctrlwire.go.
type createPipelineMsg struct {
	Name   string          `json:"n"`
	Type   string          `json:"t"`
	Config json.RawMessage `json:"c,omitempty"`
}
type nameMsg struct {
	Name string `json:"n"`
}

// respOK is the response of a control RPC that went well; like every
// shared response it must stay immutable.
var respOK = []byte("ok")

type preparedState struct {
	epoch     uint64
	iteration uint64
	view      MemberView
	from      string // client that prepared; equal-epoch re-prepare is
	// idempotent for it but rejected for anyone else
}

type activeState struct {
	epoch     uint64
	iteration uint64
	rank      int
	comm      *mona.Comm
	view      MemberView // the 2PC-pinned view, kept for checkpoint placement

	// inflight counts stage/execute handlers currently running on the
	// backend; draining marks a teardown in progress. Teardown (deactivate
	// or pipeline destruction) flips draining under slot.mu — becoming the
	// owner of the teardown — then waits for inflight to reach zero before
	// touching the backend or destroying the communicator, so a concurrent
	// Stage/Execute can never run on a deactivated backend or a destroyed
	// communicator.
	inflight sync.WaitGroup
	draining bool
}

type pipelineSlot struct {
	name     string
	backend  Backend
	typeName string          // factory type, retained for elastic re-provisioning
	config   json.RawMessage // creation config, retained with typeName

	mu       sync.Mutex
	prepared *preparedState // nil, or &prep: a prepare holds no state of its own
	prep     preparedState
	// active is nil, or &act: an activation reuses act, because a teardown
	// reads nothing of it once it cleared active, and every handler that
	// entered the iteration has left it by then (inflight).
	active *activeState
	act    activeState
	// The members of the last activated view (delta invalidation), a list of
	// the slot's own.
	lastMembers []string
	// The frozen view and number of the last iteration this slot deactivated:
	// where, and under which version, its checkpoint rounds go.
	lastView MemberView
	lastIter uint64

	slotM atomic.Pointer[slotMetrics]

	// names interns the field and type names this pipeline's stage frames
	// carry (decodeStageRecords).
	names internTable
}

// slotMetrics are a slot's per-block stage and per-commit instruments,
// resolved once per registry rather than per use (a labeled lookup composes
// a key string).
type slotMetrics struct {
	reg           *obs.Registry
	bytes         *obs.Counter
	blocks        *obs.Counter
	deltaMismatch *obs.Counter
	commits       *obs.Counter
}

func (s *pipelineSlot) metrics(reg *obs.Registry) *slotMetrics {
	if m := s.slotM.Load(); m != nil && m.reg == reg {
		return m
	}
	m := &slotMetrics{
		reg:           reg,
		bytes:         reg.Counter("colza.staged.bytes", "pipeline", s.name),
		blocks:        reg.Counter("colza.staged.blocks", "pipeline", s.name),
		deltaMismatch: reg.Counter("codec.delta.mismatch", "pipeline", s.name),
		commits:       reg.Counter("colza.commit.count", "pipeline", s.name),
	}
	s.slotM.Store(m)
	return m
}

// Provider hosts pipelines on one staging server and reacts to membership
// changes. It registers the colza and colza-admin RPCs on its Margo
// instance.
type Provider struct {
	mi    *margo.Instance
	mn    *mona.Instance
	group *ssg.Group

	obsReg atomic.Pointer[obs.Registry]

	mu            sync.Mutex
	pipelines     map[string]*pipelineSlot
	activeIters   int
	leaving       bool
	left          bool
	onLeave       func()
	stateReplicas int                     // ring successors per checkpoint round; 0 disables
	lastMigration *MigrationStatus        // outcome of the leave round
	elastic       atomic.Pointer[Elastic] // read lock-free on every execute; nil without -elastic

	// selfView is the member list of a view of this server alone: what a
	// provider without a group takes for its membership, and the view of a
	// single-server activate.
	selfView []string
	votes    atomic.Pointer[voteCounters]

	// Replicated-checkpoint store (see checkpoint.go): checkpoints held for
	// peers.
	ckptMu sync.Mutex
	ckpts  map[ckptKey]*ckptEntry

	// Stage compression (DESIGN.md §10): the per-(pipeline, field, block)
	// delta bases remembered for temporal encoding, and the raw and delta
	// wire/decode byte counters cached so the stage hot path increments them
	// without a labeled-lookup allocation.
	codecCtrs atomic.Pointer[codecCounters]
	deltas    *codec.DeltaState

	// transferSleep, when non-nil, replaces time.Sleep in the checkpoint
	// transfer's retry (transfer) so dessim-style tests cover the backoff
	// without real sleeps; transferRNG draws its jitter. Both under mu:
	// deactivate handlers of different pipelines checkpoint concurrently.
	transferSleep func(time.Duration)
	transferRNG   *rand.Rand
}

// SetObserver routes this provider's metrics and spans (and the Margo
// instance's transport metrics) into r; StartServer wires a per-server
// registry through here.
func (p *Provider) SetObserver(r *obs.Registry) {
	if r == nil {
		return
	}
	p.obsReg.Store(r)
	p.mi.SetObserver(r)
	// Pre-create the durability layer's failure instruments so every
	// metrics snapshot carries them (at zero): a leave or checkpoint failure
	// must never be invisible just because its counter was never touched.
	r.Counter("core.migrate.errors")
	r.Counter("core.state.checkpoint.errors")
	r.Counter("core.state.recover.count")
	r.Gauge("core.state.replica.lag")
	// Pre-create the raw and delta wire counters (server side: bytes.in is
	// wire bytes pulled, bytes.out is decoded bytes handed to the backend)
	// and cache the instruments so handleStage bumps them allocation-free.
	p.codecCtrs.Store(&codecCounters{
		rawIn:    r.Counter("codec.bytes.in", "codec", "raw"),
		rawOut:   r.Counter("codec.bytes.out", "codec", "raw"),
		deltaIn:  r.Counter("codec.bytes.in", "codec", "delta"),
		deltaOut: r.Counter("codec.bytes.out", "codec", "delta"),
	})
}

// codecCounters are a server's wire byte counters of the two stage codecs.
type codecCounters struct {
	rawIn, rawOut, deltaIn, deltaOut *obs.Counter
}

func (p *Provider) observer() *obs.Registry {
	if r := p.obsReg.Load(); r != nil {
		return r
	}
	return obs.Default()
}

// NewProvider creates a provider on mi, using mn for pipeline collectives
// and group for membership. group may be nil for single-server tests.
func NewProvider(mi *margo.Instance, mn *mona.Instance, group *ssg.Group) *Provider {
	p := &Provider{
		mi:            mi,
		mn:            mn,
		group:         group,
		pipelines:     make(map[string]*pipelineSlot),
		stateReplicas: 1,
		ckpts:         make(map[ckptKey]*ckptEntry),
		deltas:        codec.NewDeltaState(0),
		transferRNG:   rand.New(rand.NewSource(1)),
		selfView:      []string{mi.Addr()},
	}
	mi.RegisterProviderRPC(ProviderID, "prepare", p.handlePrepare)
	mi.RegisterProviderRPC(ProviderID, "commit", p.handleCommit)
	mi.RegisterProviderRPC(ProviderID, "abort", p.handleAbort)
	mi.RegisterProviderRPC(ProviderID, "stage", p.handleStage)
	mi.RegisterProviderRPC(ProviderID, "execute", p.handleExecute)
	mi.RegisterProviderRPC(ProviderID, "deactivate", p.handleDeactivate)
	mi.RegisterProviderRPC(ProviderID, "members", p.handleMembers)
	mi.RegisterProviderRPC(AdminID, "create_pipeline", p.handleCreatePipeline)
	mi.RegisterProviderRPC(AdminID, "destroy_pipeline", p.handleDestroyPipeline)
	mi.RegisterProviderRPC(AdminID, "list_pipelines", p.handleListPipelines)
	mi.RegisterProviderRPC(AdminID, "list_types", p.handleListTypes)
	mi.RegisterProviderRPC(AdminID, "leave", p.handleLeave)
	mi.RegisterProviderRPC(ProviderID, "checkpoint_state", p.handleCheckpointState)
	mi.RegisterProviderRPC(ProviderID, "activate_solo", p.handleActivateSolo)
	mi.RegisterProviderRPC(AdminID, "metrics_json", p.handleJSONMetrics)
	mi.RegisterProviderRPC(AdminID, "trace", p.handleTrace)
	mi.RegisterProviderRPC(AdminID, "pipeline_defs", p.handlePipelineDefs)
	mi.RegisterProviderRPC(AdminID, "elastic_status", p.handleElasticStatus)
	return p
}

// BindPools routes this provider's RPCs onto two execution streams, the
// paper's Margo pool split: control-plane RPCs (2PC, membership, admin) on
// a small latency-oriented pool, the data plane (stage, execute) on a
// throughput pool. Either pool may be nil to leave that set unbounded.
// SWIM gossip and the mercury bulk-pull service stay unpooled on purpose:
// gossip is tiny and latency-critical (queueing it behind a staging burst
// would read as member failure), and bulk pulls are only ever driven by
// pooled stage handlers, which already bound their concurrency.
func (p *Provider) BindPools(control, data *margo.Pool) {
	// The state transfer (checkpoint_state) rides the data pool even though
	// it is a control-plane RPC: it carries whole state blobs, and — more
	// importantly — it is issued synchronously from handlers that themselves
	// run on a peer's control pool (deactivate, leave). Keeping it off the
	// control pool removes the mutual-wait cycle two servers checkpointing to
	// each other would otherwise risk under a saturated control stream.
	for _, rpc := range dataRPCs {
		p.mi.BindRPCPool(providerRPCNames[rpc], data)
	}
	for _, rpc := range controlRPCs {
		p.mi.BindRPCPool(providerRPCNames[rpc], control)
	}
	for _, rpc := range adminRPCs {
		p.mi.BindRPCPool(margo.ProviderRPCName(AdminID, rpc), control)
	}
}

// The provider's RPCs by execution stream (BindPools): the data plane and
// the control plane under ProviderID, the admin RPCs under AdminID.
var (
	dataRPCs    = []string{"stage", "execute", "checkpoint_state"}
	controlRPCs = []string{"prepare", "commit", "abort", "deactivate", "members", "activate_solo"}
	adminRPCs   = []string{"create_pipeline", "destroy_pipeline", "list_pipelines", "list_types", "leave",
		"metrics_json", "trace", "pipeline_defs", "elastic_status"}
)

// providerRPCNames maps each ProviderID RPC to its wire name, composed once:
// a client call (Client.callUntil, once per staged block) looks it up
// instead of concatenating it.
var providerRPCNames = func() map[string]string {
	m := make(map[string]string)
	for _, rpcs := range [][]string{dataRPCs, controlRPCs} {
		for _, rpc := range rpcs {
			m[rpc] = margo.ProviderRPCName(ProviderID, rpc)
		}
	}
	return m
}()

// OnLeave registers a callback fired once the server has left the group
// (after any active iteration drains); the host uses it to shut the
// process down.
func (p *Provider) OnLeave(fn func()) {
	p.mu.Lock()
	p.onLeave = fn
	p.mu.Unlock()
}

// CreatePipeline instantiates a pipeline locally (also reachable via the
// admin RPC). Repeating a create with the same type and config bytes is a
// no-op, also when the repeats race each other (one backend stays, the
// others are destroyed); the same name with another definition is an error.
func (p *Provider) CreatePipeline(name, typeName string, config json.RawMessage) error {
	same := func(slot *pipelineSlot) bool {
		return slot.typeName == typeName && bytes.Equal(slot.config, config)
	}
	p.mu.Lock()
	old := p.pipelines[name]
	p.mu.Unlock()
	if old != nil && same(old) {
		return nil
	}
	f, ok := LookupPipelineType(typeName)
	if !ok {
		return fmt.Errorf("colza: unknown pipeline type %q (known: %v)", typeName, PipelineTypes())
	}
	b, err := f(config)
	if err != nil {
		return fmt.Errorf("colza: constructing pipeline %q: %w", name, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if old := p.pipelines[name]; old != nil {
		b.Destroy()
		if same(old) {
			return nil
		}
		return fmt.Errorf("colza: pipeline %q already exists", name)
	}
	p.pipelines[name] = &pipelineSlot{name: name, backend: b, typeName: typeName, config: config}
	return nil
}

// PipelineDef describes one hosted pipeline well enough to recreate it on
// another server: the elastic controller replicates these definitions to
// a freshly launched daemon so it can vote yes on the next activate.
type PipelineDef struct {
	Name   string          `json:"n"`
	Type   string          `json:"t"`
	Config json.RawMessage `json:"c,omitempty"`
}

// PipelineDefs lists the hosted pipelines' definitions, sorted by name.
func (p *Provider) PipelineDefs() []PipelineDef {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PipelineDef, 0, len(p.pipelines))
	for _, slot := range p.pipelines {
		out = append(out, PipelineDef{Name: slot.name, Type: slot.typeName, Config: slot.config})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DestroyPipeline removes a pipeline, draining any in-flight stage/execute
// handlers before tearing down the active iteration.
func (p *Provider) DestroyPipeline(name string) error {
	return p.destroyPipeline(name, nil)
}

func (p *Provider) destroyPipeline(name string, flush func(func())) error {
	p.mu.Lock()
	slot, ok := p.pipelines[name]
	if ok {
		delete(p.pipelines, name)
	}
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchPipeline, name)
	}
	slot.mu.Lock()
	st := slot.active
	owner := st != nil && !st.draining
	if owner {
		st.draining = true
	}
	slot.mu.Unlock()
	if owner {
		// We own the teardown: wait out in-flight handlers, then release
		// the iteration (a concurrent deactivate lost the draining race and
		// has already returned ErrNotActive).
		st.inflight.Wait()
		slot.mu.Lock()
		p.mn.DestroyComm(st.comm)
		slot.active = nil
		slot.mu.Unlock()
		p.iterDone(flush)
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.backend.Destroy()
}

// destroyBackends destroys every pipeline's backend; the server calls it
// after its endpoint stopped admitting requests. The slots stay, so a late
// handler still finds its pipeline (and an inactive backend).
func (p *Provider) destroyBackends() {
	for _, slot := range p.slots() {
		slot.mu.Lock()
		_ = slot.backend.Destroy() // nothing to report to: the server is gone
		slot.mu.Unlock()
	}
}

// Pipelines lists locally instantiated pipeline names.
func (p *Provider) Pipelines() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.pipelines))
	for n := range p.pipelines {
		out = append(out, n)
	}
	return out
}

// slots snapshots the hosted pipelines' slots.
func (p *Provider) slots() []*pipelineSlot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*pipelineSlot, 0, len(p.pipelines))
	for _, s := range p.pipelines {
		out = append(out, s)
	}
	return out
}

func (p *Provider) slot(name string) (*pipelineSlot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.pipelines[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPipeline, name)
	}
	return s, nil
}

// slotOf is slot for a name that lies in a received frame: indexing the
// table by string(name) copies nothing.
func (p *Provider) slotOf(name []byte) (*pipelineSlot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.pipelines[string(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchPipeline, name)
	}
	return s, nil
}

// members is the membership a prepared view must equal: the group's, or,
// without a group, this server alone. The list is shared: read only.
func (p *Provider) members() []string {
	if p.group != nil {
		return p.group.Snapshot()
	}
	return p.selfView
}

// voteCounters are the two colza.prepare.votes instruments, resolved once
// per registry.
type voteCounters struct {
	reg     *obs.Registry
	yes, no *obs.Counter
}

// vote counts and encodes a prepare's vote.
func (p *Provider) vote(yes bool, reason string) ([]byte, error) {
	reg := p.observer()
	m := p.votes.Load()
	if m == nil || m.reg != reg {
		m = &voteCounters{reg: reg, yes: reg.Counter("colza.prepare.votes", "vote", "yes"), no: reg.Counter("colza.prepare.votes", "vote", "no")}
		p.votes.Store(m)
	}
	if yes {
		m.yes.Inc()
		return voteYes, nil
	}
	m.no.Inc()
	return appendVote(make([]byte, 0, 2+4+len(reason)), false, reason), nil
}

// handlePrepare is phase one of the activate 2PC: vote on pinning the
// proposed view for the iteration.
func (p *Provider) handlePrepare(req mercury.Request) ([]byte, error) {
	name, rest, err := splitCtrlFrame(req.Payload)
	if err != nil {
		return nil, err
	}
	members := p.members()
	it, view, same, err := decodePrepare(rest, members)
	if err != nil {
		return nil, err
	}
	slot, err := p.slotOf(name)
	if err != nil {
		return p.vote(false, err.Error())
	}
	// A view that is this server's membership as it stands (same) has
	// passed every check below but the leave; any other is checked here.
	if !same {
		if err := view.check(); err != nil {
			return p.vote(false, err.Error())
		}
		if view.RankOf(p.mi.Addr()) < 0 {
			return p.vote(false, "server not in proposed view")
		}
	}
	p.mu.Lock()
	leaving := p.leaving
	p.mu.Unlock()
	if leaving {
		return p.vote(false, "server is leaving the staging area")
	}
	// The 2PC exists because SSG views are only eventually consistent: a
	// server votes yes only if the proposed view matches its own current
	// membership, so all parties pin the same group or the client retries.
	if !same && p.group != nil && !sameRPCSet(view, members) {
		return p.vote(false, fmt.Sprintf("view mismatch: proposed %d members, local view has %d", len(view.Members), len(members)))
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.active != nil {
		return p.vote(false, ErrBusy.Error())
	}
	if slot.prepared != nil {
		if slot.prepared.epoch > view.Epoch {
			return p.vote(false, "superseded by newer epoch")
		}
		// An equal-epoch prepare is idempotent for the client that issued
		// it (a retry after its vote was lost) but must not let a second
		// client silently steal a pending prepare: its commit would then
		// activate under the thief's view.
		if slot.prepared.epoch == view.Epoch && slot.prepared.from != req.From {
			return p.vote(false, fmt.Sprintf("epoch %d already prepared by %s", view.Epoch, slot.prepared.from))
		}
	}
	slot.prep = preparedState{epoch: view.Epoch, iteration: it, view: view, from: req.From}
	slot.prepared = &slot.prep
	return p.vote(true, "")
}

// handleCommit is phase two: pin the view, build the iteration
// communicator, and activate the pipeline instance.
func (p *Provider) handleCommit(req mercury.Request) ([]byte, error) {
	name, _, epoch, err := decodeEpoch(req.Payload)
	if err != nil {
		return nil, err
	}
	slot, err := p.slotOf(name)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.prepared == nil || slot.prepared.epoch != epoch {
		return nil, fmt.Errorf("%w (pipeline %q epoch %d)", ErrNotPrepared, slot.name, epoch)
	}
	st := slot.prepared
	// Before the instance starts the iteration, re-seed any orphaned
	// checkpoints: state whose origin server fell out of the committed
	// view, because it crashed or left.
	p.recoverOrphans(slot, st.view)
	if err := p.activateSlot(slot, st.iteration, st.epoch, st.view); err != nil {
		return nil, err
	}
	slot.prepared = nil
	slot.metrics(p.observer()).commits.Inc()
	return respOK, nil
}

// activateSlot starts iteration it on slot (held locked) under view: the
// iteration communicator, the instance's Activate, the active state and
// the active-iteration counters that iterDone takes back. Both activations
// — the 2PC commit and the solo handle's — go through it.
func (p *Provider) activateSlot(slot *pipelineSlot, it, epoch uint64, view MemberView) error {
	rank := view.RankOf(p.mi.Addr())
	c, err := p.mn.CreateComm(CommID(slot.name, epoch), view.Members)
	if err != nil {
		return fmt.Errorf("colza: creating iteration communicator: %w", err)
	}
	// A membership change re-routes block placement: delta bases remembered
	// under the previous view describe blocks that may now land elsewhere,
	// so they must not survive into this iteration (invalidation matrix,
	// DESIGN.md §10).
	if !slices.Equal(slot.lastMembers, view.Members) {
		if slot.lastMembers != nil {
			p.deltas.InvalidatePipeline(slot.name)
		}
		slot.lastMembers = slices.Clone(view.Members)
	}
	ctx := IterationContext{Iteration: it, Epoch: epoch, Rank: rank, Size: len(view.Members), Comm: c, View: view}
	if err := slot.backend.Activate(ctx); err != nil {
		p.mn.DestroyComm(c)
		return fmt.Errorf("colza: pipeline activate: %w", err)
	}
	st := &slot.act
	st.epoch, st.iteration, st.rank, st.comm, st.view, st.draining = epoch, it, rank, c, view, false
	slot.active = st
	p.mu.Lock()
	p.activeIters++
	p.mu.Unlock()
	p.observer().Gauge("colza.active.iterations").Inc()
	return nil
}

func (p *Provider) handleAbort(req mercury.Request) ([]byte, error) {
	name, _, epoch, err := decodeEpoch(req.Payload)
	if err != nil {
		return nil, err
	}
	slot, err := p.slotOf(name)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	if slot.prepared != nil && slot.prepared.epoch == epoch {
		slot.prepared = nil
	}
	slot.mu.Unlock()
	return respOK, nil
}

// handleStage fetches a frame's staged blocks from the simulation's memory
// (bulk RDMA) in one transfer and hands each block to the pipeline. The
// region is whatever the client exposed — for compressed records the encoded
// payloads, which stageWireBlock decodes (and delta-reconstructs) into pooled
// buffers before the backend borrows them. Frame-level problems (malformed
// frame, a record naming a codec other than raw or delta among them; unknown
// pipeline, inactive iteration, failed pull) are RPC errors — the client's
// whole-frame retry machinery applies.
// Per-block decode and backend failures are demultiplexed into the response
// instead, so one bad block cannot fail or re-send its frame-mates.
func (p *Provider) handleStage(req mercury.Request) ([]byte, error) {
	name, rest, err := splitStageFrame(req.Payload)
	if err != nil {
		return nil, err
	}
	slot, err := p.slotOf(name)
	if err != nil {
		return nil, err
	}
	pipeline := slot.name
	list := stageRecLists.Get().(*[]stageBatchRec)
	defer putStageRecList(list)
	iteration, recs, bulk, err := decodeStageRecords(rest, req.From, &slot.names, (*list)[:0])
	*list = recs
	if err != nil {
		return nil, err
	}
	st, err := slot.enter(iteration, "stage")
	if err != nil {
		return nil, err
	}
	defer st.inflight.Done()
	reg := p.observer()
	sp := reg.StartSpan("srv.stage", obs.SpanKey{Pipeline: pipeline, Iteration: iteration, Rank: st.rank})
	// The staged bytes are on loan until done (mercury.Class.BorrowBulk):
	// the request frame when they rode in it, the client's arena pinned
	// where it lies when the client shares this host, a pooled buffer
	// pulled over RPC otherwise. The backend reads them during Stage only
	// (the Backend loan rule), so nothing retains them past done.
	data, done, err := p.mi.Class().BorrowBulk(bulk)
	if err != nil {
		err = fmt.Errorf("colza: pulling staged blocks: %w", err)
		sp.End(err)
		return nil, err
	}
	var (
		blockErrs []stageBatchBlockErr
		lost      error // the failed blocks' errors, joined, for the span
	)
	off := 0
	for i, r := range recs {
		wire := data[off : off+r.PayloadLen]
		off += r.PayloadLen
		if kind, berr := p.stageWireBlock(slot, pipeline, iteration, r.CI, r.Meta, wire, reg); berr != nil {
			blockErrs = append(blockErrs, stageBatchBlockErr{Index: i, Kind: kind, Msg: berr.Error()})
			lost = errors.Join(lost, berr)
		}
	}
	done()
	// A trace must not show a clean stage for an iteration that lost blocks.
	sp.End(lost)
	if len(blockErrs) == 0 {
		return stageRespAllLanded, nil
	}
	// The response buffer leaves this handler's ownership (the transport
	// holds it until the reply is sent), so it is not drawn from the pool.
	return appendStageBatchResp(make([]byte, 0, stageBatchRespSize(blockErrs)), blockErrs), nil
}

// stageRecLists recycles the record lists handleStage decodes frames into,
// so a frame's records cost no allocation of their own.
var stageRecLists = sync.Pool{New: func() any { return new([]stageBatchRec) }}

// maxPooledRecs bounds the record list kept for reuse: a frame of more
// records than the batcher ever sends (a hostile one) gives its list to the
// collector.
const maxPooledRecs = 4 * batchMaxBlocks

func putStageRecList(list *[]stageBatchRec) {
	if cap(*list) > maxPooledRecs {
		*list = nil
	} else {
		clear(*list)
		*list = (*list)[:0]
	}
	stageRecLists.Put(list)
}

// stageWireBlock decodes one staged block's wire bytes and hands the block
// to the backend, with the error tagged by the kind the client reacts to.
// wire is on loan from the caller (a slice of the request frame, of the
// client's arena or of the pulled buffer) and is passed to the backend as is
// when raw; decode targets draw their own pooled buffer and are recycled
// before return.
func (p *Provider) stageWireBlock(slot *pipelineSlot, pipeline string, iteration uint64, ci stageCodecInfo, meta BlockMeta, wire []byte, reg *obs.Registry) (uint8, error) {
	data := wire
	pooled := false
	if ci.CodecID == codec.RawID { // else delta: the frame decoder admits no other id
		if ci.Uncompressed != uint64(len(wire)) || ci.HasBase {
			return stageBatchErrRemote, fmt.Errorf("%w: raw block length mismatch", ErrStageWire)
		}
	} else {
		buf := bufpool.Get(int(ci.Uncompressed))
		dec, derr := codec.Delta{}.Decode(buf[:0], wire, int(ci.Uncompressed))
		if derr != nil {
			bufpool.Put(buf)
			return stageBatchErrRemote, fmt.Errorf("colza: stage decode (delta): %w", derr)
		}
		data = dec
		pooled = true
		if ci.HasBase {
			key := codec.DeltaKey{Pipeline: pipeline, Field: meta.Field, Block: meta.BlockID}
			if !p.deltas.XORBase(key, ci.DeltaBase, data) {
				bufpool.Put(data)
				slot.metrics(reg).deltaMismatch.Inc()
				return stageBatchErrDeltaMismatch,
					fmt.Errorf("colza: stage delta base mismatch: pipeline %q block %d base %d", pipeline, meta.BlockID, ci.DeltaBase)
			}
		}
	}
	if ci.Remember {
		p.deltas.Remember(codec.DeltaKey{Pipeline: pipeline, Field: meta.Field, Block: meta.BlockID}, iteration, data)
	}
	err := slot.backend.Stage(iteration, meta, data)
	n := len(data)
	if pooled {
		bufpool.Put(data)
	}
	if err != nil {
		return stageBatchErrRemote, err
	}
	if ctrs := p.codecCtrs.Load(); ctrs != nil {
		in, out := ctrs.rawIn, ctrs.rawOut
		if ci.CodecID == codec.DeltaID {
			in, out = ctrs.deltaIn, ctrs.deltaOut
		}
		in.Add(int64(len(wire)))
		out.Add(int64(n))
	}
	m := slot.metrics(reg)
	m.bytes.Add(int64(n))
	m.blocks.Inc()
	return 0, nil
}

// enter registers an in-flight stage/execute handler on the iteration,
// failing if the iteration is absent, mismatched, or already draining. The
// caller must st.inflight.Done() when the backend call returns.
func (s *pipelineSlot) enter(iteration uint64, op string) (*activeState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.active
	if st == nil || st.iteration != iteration || st.draining {
		return nil, fmt.Errorf("%w: %s(iter=%d)", ErrNotActive, op, iteration)
	}
	st.inflight.Add(1)
	return st, nil
}

func (p *Provider) handleExecute(req mercury.Request) ([]byte, error) {
	name, it, _, err := decodeEpoch(req.Payload)
	if err != nil {
		return nil, err
	}
	slot, err := p.slotOf(name)
	if err != nil {
		return nil, err
	}
	st, err := slot.enter(it, "execute")
	if err != nil {
		return nil, err
	}
	defer st.inflight.Done()
	sp := p.observer().StartSpan("srv.execute", obs.SpanKey{Pipeline: slot.name, Iteration: it, Rank: st.rank})
	res, err := slot.backend.Execute(it)
	exec := sp.End(err)
	if err != nil {
		return nil, err
	}
	if e := p.elastic.Load(); e != nil {
		(*e).Executed(exec, len(st.view.Members))
	}
	r := getExecResp()
	r.buf = appendExecResult(r.buf[:0], res)
	req.Defer(r.put)
	return r.buf, nil
}

// execResp is the buffer an execute response is encoded into. The
// transport is done with a response once its send returns, when the
// handler's Request.Defer callbacks run, so put hands the buffer back then.
type execResp struct {
	buf []byte
	put func()
}

var execResps sync.Pool

func getExecResp() *execResp {
	if r, ok := execResps.Get().(*execResp); ok {
		return r
	}
	r := new(execResp)
	r.put = func() { execResps.Put(r) }
	return r
}

func (p *Provider) handleDeactivate(req mercury.Request) ([]byte, error) {
	name, it, _, err := decodeEpoch(req.Payload)
	if err != nil {
		return nil, err
	}
	slot, err := p.slotOf(name)
	if err != nil {
		return nil, err
	}
	slot.mu.Lock()
	st := slot.active
	if st == nil || st.iteration != it || st.draining {
		slot.mu.Unlock()
		return nil, fmt.Errorf("%w: deactivate(iter=%d)", ErrNotActive, it)
	}
	st.draining = true
	slot.mu.Unlock()
	sp := p.observer().StartSpan("srv.deactivate", obs.SpanKey{Pipeline: slot.name, Iteration: it, Rank: st.rank})
	// Drain in-flight stage/execute handlers before touching the backend —
	// without this, Backend.Deactivate and DestroyComm race a Stage/Execute
	// still running on the iteration.
	st.inflight.Wait()
	slot.mu.Lock()
	err = slot.backend.Deactivate(it)
	p.mn.DestroyComm(st.comm)
	view := st.view
	slot.active = nil
	slot.lastView, slot.lastIter = view, it
	slot.mu.Unlock()
	sp.End(err)
	if err == nil {
		// The iteration's state is now quiescent: replicate it before the
		// client can activate the next view (which may no longer contain
		// this server).
		p.dropSuperseded(slot.name, view, it)
		p.checkpointSlot(slot, nil)
	}
	p.iterDone(req.Defer)
	if err != nil {
		return nil, err
	}
	return respOK, nil
}

// iterDone decrements the active-iteration count and completes a deferred
// leave once the server is idle. flush, when non-nil, orders the OnLeave
// callback after the in-flight RPC response (mercury.Request.Defer of the
// deactivate/destroy handler that retired the iteration).
func (p *Provider) iterDone(flush func(func())) {
	p.observer().Gauge("colza.active.iterations").Dec()
	p.mu.Lock()
	p.activeIters--
	doLeave := p.leaving && p.activeIters == 0
	fn := p.onLeave
	p.mu.Unlock()
	if doLeave {
		p.finishLeaveFlush(fn, flush)
	}
}

func (p *Provider) handleMembers(req mercury.Request) ([]byte, error) {
	v := MemberView{Members: p.members()}
	return v.Encode(), nil
}

func (p *Provider) handleCreatePipeline(req mercury.Request) ([]byte, error) {
	var msg createPipelineMsg
	if err := json.Unmarshal(req.Payload, &msg); err != nil {
		return nil, err
	}
	if err := p.CreatePipeline(msg.Name, msg.Type, msg.Config); err != nil {
		return nil, err
	}
	return respOK, nil
}

func (p *Provider) handleDestroyPipeline(req mercury.Request) ([]byte, error) {
	var msg nameMsg
	if err := json.Unmarshal(req.Payload, &msg); err != nil {
		return nil, err
	}
	if err := p.destroyPipeline(msg.Name, req.Defer); err != nil {
		return nil, err
	}
	return respOK, nil
}

func (p *Provider) handleListPipelines(req mercury.Request) ([]byte, error) {
	return json.Marshal(p.Pipelines())
}

// handleListTypes reports which pipeline types this daemon can
// instantiate (the shared libraries on its library path, so to speak).
func (p *Provider) handleListTypes(req mercury.Request) ([]byte, error) {
	return json.Marshal(PipelineTypes())
}

// handleLeave asks this server to exit the staging area. If an iteration
// is active the departure is deferred until deactivate — membership is
// frozen while a pipeline runs, exactly as the paper specifies.
func (p *Provider) handleLeave(req mercury.Request) ([]byte, error) {
	p.mu.Lock()
	if p.leaving {
		p.mu.Unlock()
		return []byte("already leaving"), nil
	}
	p.leaving = true
	deferLeave := p.activeIters > 0
	fn := p.onLeave
	p.mu.Unlock()
	if deferLeave {
		return []byte("leave deferred until iteration completes"), nil
	}
	p.finishLeaveFlush(fn, req.Defer)
	return respOK, nil
}

// finishLeave completes a departure outside any RPC context (tests, direct
// API use); RPC handlers go through finishLeaveFlush to order the OnLeave
// callback after their own response.
func (p *Provider) finishLeave(fn func()) { p.finishLeaveFlush(fn, nil) }

func (p *Provider) finishLeaveFlush(fn func(), flush func(func())) {
	p.mu.Lock()
	if p.left {
		p.mu.Unlock()
		return
	}
	p.left = true
	p.mu.Unlock()
	st := p.leaveRound()
	p.mu.Lock()
	p.lastMigration = &st
	p.mu.Unlock()
	if st.Partial() {
		p.observer().Gauge("core.migrate.partial").Set(int64(len(st.Failed)))
	}
	if p.group != nil {
		p.group.Leave()
	}
	if fn == nil {
		return
	}
	if flush != nil {
		// Response-flush handshake: fn (typically "shut the process down")
		// runs only after the admin/deactivate reply has provably left the
		// endpoint — the fixed 200ms sleep this replaces was a race under
		// slow transports.
		flush(fn)
		return
	}
	// No response to order against: fire on a goroutine so the caller is
	// not blocked by the host's shutdown.
	go fn()
}

// sameRPCSet reports whether the view's addresses equal the given member
// list as a set.
func sameRPCSet(v MemberView, members []string) bool {
	if len(v.Members) != len(members) {
		return false
	}
	set := make(map[string]bool, len(members))
	for _, m := range members {
		set[m] = true
	}
	for _, m := range v.Members {
		if !set[m] {
			return false
		}
	}
	return true
}

// handleJSONMetrics serves the registry as a structured snapshot: what
// `colza-ctl metrics` prints as text, and what benchmarks merge across
// servers.
func (p *Provider) handleJSONMetrics(req mercury.Request) ([]byte, error) {
	return json.Marshal(p.observer().Snapshot())
}

// handlePipelineDefs serves the hosted pipelines' definitions so a peer
// (the elastic controller) can replicate them onto a new server.
func (p *Provider) handlePipelineDefs(req mercury.Request) ([]byte, error) {
	return json.Marshal(p.PipelineDefs())
}

// Elastic is the scaling controller a server embeds, declared here so core
// need not import internal/elastic. It serves the elastic_status admin RPC
// and is handed every successful execute's wall time (the srv.execute
// span) with the size of the view it ran on; Executed must not block.
type Elastic interface {
	StatusJSON() ([]byte, error)
	Executed(exec time.Duration, servers int)
}

// SetElastic installs the embedded controller. Servers without one answer
// elastic_status with an error.
func (p *Provider) SetElastic(c Elastic) { p.elastic.Store(&c) }

func (p *Provider) handleElasticStatus(req mercury.Request) ([]byte, error) {
	c := p.elastic.Load()
	if c == nil {
		return nil, errors.New("colza: no elastic controller on this server")
	}
	return (*c).StatusJSON()
}

// handleTrace serves the retained span records as JSON lines.
func (p *Provider) handleTrace(req mercury.Request) ([]byte, error) {
	var buf bytes.Buffer
	if err := p.observer().WriteTraceJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Leaving reports whether a leave has been requested.
func (p *Provider) Leaving() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leaving
}
