package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"time"

	"colza/internal/mercury"
)

// This file is the durability layer for stateful pipelines (DESIGN.md §9):
// the one way pipeline state leaves a server. The paper's elasticity story
// assumes cross-iteration state survives membership change — a server may
// crash between iterations, or be asked to leave — and both are served by
// replicated checkpoints:
//
//   - after every successful deactivate, each server hosting a
//     StatefulBackend exports its state and replicates it to R ring
//     successors in the just-frozen view (acknowledged, retried,
//     size-bounded transfers of the checkpoint_state RPC);
//   - a graceful leave is one more round of the same: a fresh export under
//     the last deactivated iteration's version, so it replaces that round's
//     entry in place, pushed until max(R, 1) members acknowledged it, and
//     every checkpoint the leaver holds for others handed to a member that
//     takes it;
//   - on the next commit, every surviving member checks its held
//     checkpoints against the newly pinned view: a checkpoint whose origin
//     is gone is an orphan, and the first replica still in the view
//     re-seeds it into the local instance via ImportState before the
//     iteration starts — the only place state is imported.
//
// Election of the importer is deterministic and communication-free: the
// checkpoint itself carries the ordered replica list, every holder applies
// the same rule ("first replica still in the view imports; everyone else
// drops their copy"), so an orphan is imported exactly once per view even
// though the holders never talk to each other (replicaSequence states the
// invariant that makes holders with different lists agree).

// Checkpoint transfer limits. One transfer carries one pipeline's full
// exported state; the size bound keeps a runaway backend from wedging the
// control plane — it bounds a leave as it bounds a deactivate round — and
// the retry/backoff schedule rides out the transient failure classes
// (timeout, unreachable, busy) without stalling deactivate for long.
const (
	maxCheckpointBytes = 16 << 20
	checkpointTimeout  = 2 * time.Second
)

var checkpointRetry = RetryPolicy{Max: 3, Base: 25 * time.Millisecond, Cap: 100 * time.Millisecond, Jitter: 0.5}

// ckptKey identifies one replicated checkpoint: which pipeline's state,
// exported by which server.
type ckptKey struct {
	pipeline string
	origin   string // RPC address of the exporting server
}

// ckptEntry is one held replica. iteration versions it (a newer round
// replaces an older one, never the reverse); replicas is the ordered
// replica list the importer is elected from.
type ckptEntry struct {
	iteration uint64
	epoch     uint64
	replicas  []string
	state     []byte
}

// ckptMsg is the checkpoint_state wire payload.
type ckptMsg struct {
	Pipeline  string   `json:"p"`
	Origin    string   `json:"o"`
	Iteration uint64   `json:"it"`
	Epoch     uint64   `json:"e"`
	Replicas  []string `json:"r"`
	State     []byte   `json:"s"`
}

// SetStateReplicas sets how many ring successors receive this server's
// pipeline-state checkpoints after each deactivate; 0 disables the
// deactivate rounds (a graceful leave still hands its state to one member).
// StartServer wires ServerConfig.StateReplicas through here.
func (p *Provider) SetStateReplicas(n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	p.stateReplicas = n
	p.mu.Unlock()
}

func (p *Provider) replicaCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stateReplicas
}

// HeldCheckpoints reports how many peer checkpoints this server currently
// holds (tests assert replication happened and recovery consumed it).
func (p *Provider) HeldCheckpoints() int {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	return len(p.ckpts)
}

// ringSuccessors returns the members following origin in the view's rank
// order, wrapping around, origin excluded; nil when origin is not in the
// view.
func ringSuccessors(view MemberView, origin string) []string {
	rank := view.RankOf(origin)
	if rank < 0 {
		return nil
	}
	return slices.Concat(view.Members[rank+1:], view.Members[:rank])
}

// replicaSequence is the one place replica lists are built, and it keeps
// the invariant the importer election rests on: every replica list ever
// sent for one (pipeline, origin, iteration) is a prefix of one sequence —
// the ring successors of origin in that iteration's frozen view, then the
// remaining live members in address order. A deactivate round sends the
// ring; a leave round extends the list it starts from (the ring, or a held
// entry's list) with the live members it does not name yet, and sends each
// target the prefix that reaches it. A holder is always on the list it
// holds, so "the first listed member present in the committed view" sits at
// or before every committing holder in the sequence: holders with different
// prefixes elect the same importer. Walking the live ring instead would let
// a member that joined after the iteration and sorts between a leaver and
// an old holder become a second importer.
func replicaSequence(list []string, origin string, live []string) []string {
	seq := append([]string(nil), list...)
	listed := make(map[string]bool, len(list)+1)
	listed[origin] = true
	for _, m := range list {
		listed[m] = true
	}
	tail := len(seq)
	for _, m := range live {
		if !listed[m] {
			seq = append(seq, m)
		}
	}
	sort.Strings(seq[tail:])
	return seq
}

// pushCheckpoint sends msg along the sequence its replica list starts —
// extended by the live members when live is non-nil, and then restricted to
// them — until want members acknowledged it, past members that refuse (they
// are leaving) or do not answer. A target is sent the list it was given, or
// the longer prefix that reaches it (see replicaSequence). It returns the
// number of acknowledgements; every failed attempt is counted in
// core.state.checkpoint.errors.
func (p *Provider) pushCheckpoint(msg ckptMsg, live []string, want int) (acked int) {
	self := p.mi.Addr()
	listed := len(msg.Replicas)
	seq := replicaSequence(msg.Replicas, msg.Origin, live)
	var payload []byte
	for k, addr := range seq {
		if acked >= want {
			break
		}
		if addr == self || (live != nil && !slices.Contains(live, addr)) {
			continue
		}
		if n := max(listed, k+1); payload == nil || n != len(msg.Replicas) {
			msg.Replicas = seq[:n]
			payload, _ = json.Marshal(msg)
		}
		if p.transfer(addr, payload) != nil {
			continue
		}
		acked++
		p.observer().Counter("core.state.checkpoint.bytes", "pipeline", msg.Pipeline).Add(int64(len(msg.State)))
	}
	return acked
}

// checkpointSlot exports a stateful pipeline's cross-iteration state and
// replicates it under the version of the slot's last deactivated iteration.
// With live nil it is the round after a successful deactivate: R ring
// successors of the iteration's frozen view. With the current membership it
// is the leave round: the same ring first, then the other live members,
// until max(R, 1) hold the state. Failures never fail the deactivate or the
// leave, but they are never silent: every export or transfer problem lands
// in core.state.checkpoint.errors, and the replica-lag gauge records how
// many of the ring's desired replicas missed the round. hasState reports
// whether there was state wanting a replica; acked how many members took it.
func (p *Provider) checkpointSlot(slot *pipelineSlot, live []string) (hasState bool, acked int) {
	sb, ok := slot.backend.(StatefulBackend)
	if !ok {
		return false, 0
	}
	slot.mu.Lock()
	view, iteration := slot.lastView, slot.lastIter
	slot.mu.Unlock()
	self, want := p.mi.Addr(), p.replicaCount()
	ring := ringSuccessors(view, self)
	if live != nil {
		want = max(want, 1)
	} else if want == 0 || len(ring) == 0 {
		return false, 0 // replication disabled, or a single-member view
	}
	reg := p.observer()
	state, err := sb.ExportState()
	if err != nil || len(state) > maxCheckpointBytes {
		reg.Counter("core.state.checkpoint.errors").Inc()
		return true, 0
	}
	if len(state) == 0 {
		return false, 0
	}
	acked = p.pushCheckpoint(ckptMsg{
		Pipeline:  slot.name,
		Origin:    self,
		Iteration: iteration,
		Epoch:     view.Epoch,
		Replicas:  ring,
		State:     state,
	}, live, want)
	reg.Counter("core.state.checkpoint.count", "pipeline", slot.name).Inc()
	reg.Gauge("core.state.replica.lag").Set(int64(max(min(want, len(ring))-acked, 0)))
	return true, acked
}

// handleCheckpointState stores a peer's replicated checkpoint. A stale
// round (older iteration for the same pipeline/origin) never overwrites a
// newer one — replication retries may arrive out of order — and a re-sent
// round replaces itself, so a retry after a lost acknowledgement leaves one
// entry. A leaving server refuses: what it accepted would leave with it, and
// the sender moves on to the next member of the sequence.
func (p *Provider) handleCheckpointState(req mercury.Request) ([]byte, error) {
	var msg ckptMsg
	if err := json.Unmarshal(req.Payload, &msg); err != nil {
		return nil, err
	}
	if msg.Pipeline == "" || msg.Origin == "" {
		return nil, fmt.Errorf("colza: malformed checkpoint (missing pipeline or origin)")
	}
	if len(msg.State) > maxCheckpointBytes {
		return nil, fmt.Errorf("colza: checkpoint for %q exceeds %d bytes", msg.Pipeline, maxCheckpointBytes)
	}
	key := ckptKey{pipeline: msg.Pipeline, origin: msg.Origin}
	// The leaving check and the store share ckptMu with the leave round's
	// snapshot of the held entries: an entry is either refused or handed on.
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	if p.Leaving() {
		return nil, fmt.Errorf("colza: server %s is leaving; cannot hold state for %q", p.mi.Addr(), msg.Pipeline)
	}
	if cur, ok := p.ckpts[key]; !ok || msg.Iteration >= cur.iteration {
		p.ckpts[key] = &ckptEntry{
			iteration: msg.Iteration,
			epoch:     msg.Epoch,
			replicas:  msg.Replicas,
			state:     msg.State,
		}
	}
	return []byte("ok"), nil
}

// dropSuperseded runs after a successful deactivate. A held entry of this
// pipeline whose origin took part in the iteration is older than the round
// that origin sends after it. When this server is among the origin's first
// R ring successors in the iteration's view, that round comes here and
// replaces the entry in place, so the entry stays: should the round never
// come (the origin crashed first, or every transfer failed), it is the
// newest state there is. Otherwise the round goes elsewhere — a scale-up
// moved the origin's ring successor — and the entry is dropped: kept, it
// would make this server a second importer when the origin crashes (its
// replica list names it first), and the state would be imported twice. The
// rule assumes every server runs with the same replica count.
func (p *Provider) dropSuperseded(pipeline string, view MemberView, iteration uint64) {
	self, r := p.mi.Addr(), p.replicaCount()
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	for k, e := range p.ckpts {
		if k.pipeline != pipeline || e.iteration >= iteration || view.RankOf(k.origin) < 0 {
			continue
		}
		ring := ringSuccessors(view, k.origin)
		if !slices.Contains(ring[:min(r, len(ring))], self) {
			delete(p.ckpts, k)
		}
	}
}

// heldCheckpoint pairs a held entry with its key, outside ckptMu.
type heldCheckpoint struct {
	key   ckptKey
	entry *ckptEntry
}

// heldCheckpoints snapshots the held entries keep selects, in key order.
func (p *Provider) heldCheckpoints(keep func(ckptKey) bool) []heldCheckpoint {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	var out []heldCheckpoint
	for k, e := range p.ckpts {
		if keep(k) {
			out = append(out, heldCheckpoint{key: k, entry: e})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].key, out[j].key
		return a.pipeline < b.pipeline || (a.pipeline == b.pipeline && a.origin < b.origin)
	})
	return out
}

// recoverOrphans re-seeds orphaned checkpoints — state whose origin server
// fell out of the newly committed view, because it crashed or left — into
// the local pipeline instance. handleCommit calls this with slot.mu held,
// before the backend activates, so the recovered state is in place when the
// iteration starts. Only the first listed replica still present in the view
// imports; later holders drop their copy, and an import failure keeps the
// entry so the next commit retries (and the failure is counted, never
// silent). An orphan of a pipeline this server does not host can never see
// a commit of its own, so any commit settles it.
func (p *Provider) recoverOrphans(slot *pipelineSlot, view MemberView) {
	self := p.mi.Addr()
	reg := p.observer()
	for _, o := range p.heldCheckpoints(func(k ckptKey) bool {
		if view.RankOf(k.origin) >= 0 {
			return false // origin is alive; its instance still owns this state
		}
		if k.pipeline == slot.name {
			return true
		}
		// Another hosted pipeline's orphan waits for that pipeline's commit.
		_, err := p.slot(k.pipeline)
		return err != nil
	}) {
		importer := ""
		for _, r := range o.entry.replicas {
			if view.RankOf(r) >= 0 {
				importer = r
				break
			}
		}
		if importer != self {
			// An earlier replica owns this recovery; drop our copy so the
			// orphan is imported exactly once. (No listed member in the view
			// means this server is not in it either: keep the entry.)
			if importer != "" {
				p.dropCkpt(o.key)
			}
			continue
		}
		sb, ok := slot.backend.(StatefulBackend)
		if !ok || o.key.pipeline != slot.name {
			// Stateless or absent here: nothing can take the state.
			reg.Counter("core.state.checkpoint.errors").Inc()
			p.dropCkpt(o.key)
			continue
		}
		if err := sb.ImportState(o.entry.state); err != nil {
			reg.Counter("core.state.checkpoint.errors").Inc()
			continue
		}
		// Recovery rewrites the pipeline's history: remembered delta bases
		// no longer describe what the instance holds, so drop them.
		p.deltas.InvalidatePipeline(slot.name)
		reg.Counter("core.state.recover.count", "pipeline", slot.name).Inc()
		p.dropCkpt(o.key)
	}
}

func (p *Provider) dropCkpt(k ckptKey) {
	p.ckptMu.Lock()
	delete(p.ckpts, k)
	p.ckptMu.Unlock()
}

// SetTransferSleep injects the sleep function of the checkpoint transfer's
// retry (tests cover the backoff without real sleeps); nil restores
// time.Sleep.
func (p *Provider) SetTransferSleep(fn func(time.Duration)) {
	p.mu.Lock()
	p.transferSleep = fn
	p.mu.Unlock()
}

// transfer is the acknowledged, retried checkpoint_state call to a peer.
// Transient failures back off under checkpointRetry, jittered, through the
// injectable sleep, and retry; a remote refusal is final — the peer answered
// (it is leaving too), so resending the same frame cannot change the
// outcome. Every failed attempt counts into core.state.checkpoint.errors,
// even when a later one lands: a dropped transfer must leave a trace.
func (p *Provider) transfer(addr string, payload []byte) error {
	failed := p.observer().Counter("core.state.checkpoint.errors")
	var err error
	for attempt := 0; attempt < checkpointRetry.attempts(); attempt++ {
		if attempt > 0 {
			p.mu.Lock()
			d := checkpointRetry.Backoff(attempt-1, p.transferRNG)
			sleep := p.transferSleep
			p.mu.Unlock()
			if sleep == nil {
				sleep = time.Sleep
			}
			sleep(d)
		}
		_, err = p.mi.CallProvider(addr, ProviderID, "checkpoint_state", payload, checkpointTimeout)
		if err == nil {
			return nil
		}
		failed.Inc()
		if Classify(err) == ClassRemote {
			return err
		}
	}
	return err
}

// MigrationStatus summarizes what a leave did with the state only this
// server could still hand over — its stateful pipelines' own, and the
// checkpoints it held of origins already gone — so a partial hand-over is
// reported instead of silently shrugged off.
type MigrationStatus struct {
	Attempted int `json:"attempted"` // pipelines and orphaned checkpoints with state to move
	Migrated  int `json:"migrated"`  // acknowledged by at least one member
	// Failed lists what found no taker: a pipeline by name, an orphaned
	// checkpoint as pipeline@origin. Replicas of earlier rounds (if any) stay
	// where they are: recovery from them is the backstop.
	Failed []string `json:"failed,omitempty"`
}

// Partial reports whether some state found no taker.
func (s MigrationStatus) Partial() bool { return len(s.Failed) > 0 }

// LastMigration returns the outcome of this server's leave round, or nil
// before a leave has completed.
func (p *Provider) LastMigration() *MigrationStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastMigration
}

// leaveRound moves everything this server holds to members that stay
// (paper future work (3)): one more checkpoint round per stateful pipeline,
// then every checkpoint held for others — a leaver that is the only replica
// of a crashed peer must not take that state along. Nothing is imported
// here; the next commit does that, as for a crash. A failure must not block
// the departure, but it is never silent: core.migrate.errors counts what was
// left without a taker and the returned status names it.
func (p *Provider) leaveRound() MigrationStatus {
	var status MigrationStatus
	if p.group == nil {
		return status
	}
	live := p.group.Members()
	record := func(what string, acked int) {
		status.Attempted++
		if acked > 0 {
			status.Migrated++
			return
		}
		// Includes the last-server-standing case (nobody to try): the state
		// leaves with us, and the status says so.
		status.Failed = append(status.Failed, what)
		p.observer().Counter("core.migrate.errors").Inc()
	}
	for _, slot := range p.slots() {
		if hasState, acked := p.checkpointSlot(slot, live); hasState {
			record(slot.name, acked)
		}
	}
	for _, h := range p.heldCheckpoints(func(ckptKey) bool { return true }) {
		e := h.entry
		acked := p.pushCheckpoint(ckptMsg{
			Pipeline:  h.key.pipeline,
			Origin:    h.key.origin,
			Iteration: e.iteration,
			Epoch:     e.epoch,
			Replicas:  e.replicas,
			State:     e.state,
		}, live, 1)
		// A live origin still owns its state and replicates it again after
		// its next iteration: handing its checkpoint on only keeps a replica
		// in between, and is not this leave's to report.
		if !slices.Contains(live, h.key.origin) {
			record(h.key.pipeline+"@"+h.key.origin, acked)
		}
	}
	return status
}
