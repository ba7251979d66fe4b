package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"colza/internal/mercury"
)

// This file is the durability layer for stateful pipelines (DESIGN.md §9).
// The paper's elasticity story assumes cross-iteration state survives
// membership change, but graceful migration alone only covers the polite
// case: a server that crashes between iterations — the exact event the
// chaos harness injects — used to take its StatefulBackend state with it.
// The layer closes that hole with replicated checkpoints:
//
//   - after every successful deactivate, each server hosting a
//     StatefulBackend exports its state and replicates it to R ring
//     successors in the just-frozen view (acknowledged, retried,
//     size-bounded transfers);
//   - on the next commit, every surviving member checks its held
//     checkpoints against the newly pinned view: a checkpoint whose origin
//     is gone is an orphan, and the first replica holder still in the view
//     re-seeds it into the local instance via ImportState before the
//     iteration starts;
//   - a graceful leave whose migration was acknowledged discards the now
//     stale replicas, so recovery cannot double-import state that already
//     moved.
//
// Election of the importer is deterministic and communication-free: the
// checkpoint itself carries the ordered replica list, every holder applies
// the same rule ("first replica still in the view imports; everyone else
// drops their copy"), so an orphan is imported exactly once per view even
// though the holders never talk to each other.

// Checkpoint transfer limits. One transfer carries one pipeline's full
// exported state; the size bound keeps a runaway backend from wedging the
// control plane, and the retry/backoff schedule rides out the transient
// failure classes (timeout, unreachable, busy) without stalling deactivate
// for long.
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
// replaces an older one, never the reverse); replicas is the full ordered
// replica list of the round, shared by every holder so importer election
// needs no coordination.
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

// ckptDiscardMsg is the checkpoint_discard wire payload.
type ckptDiscardMsg struct {
	Pipeline string `json:"p"`
	Origin   string `json:"o"`
}

// SetStateReplicas sets how many ring successors receive this server's
// pipeline-state checkpoints after each deactivate; 0 disables the
// durability layer. StartServer wires ServerConfig.StateReplicas through
// here.
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
// holds (tests assert replication happened and discards landed).
func (p *Provider) HeldCheckpoints() int {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	return len(p.ckpts)
}

// ringSuccessors returns up to r members following self in the view's rank
// order, wrapping around, self excluded.
func ringSuccessors(view MemberView, self string, r int) []string {
	n := len(view.Members)
	if n <= 1 || r <= 0 {
		return nil
	}
	rank := view.RankOf(self)
	if rank < 0 {
		return nil
	}
	if r > n-1 {
		r = n - 1
	}
	out := make([]string, 0, r)
	for i := 1; i <= r; i++ {
		out = append(out, view.Members[(rank+i)%n].RPC)
	}
	return out
}

// checkpointStateful exports a stateful pipeline's cross-iteration state
// right after a successful deactivate and replicates it to this server's
// ring successors in the iteration's frozen view. Failures never fail the
// deactivate itself, but they are never silent either: every export or
// transfer problem lands in core.state.checkpoint.errors, and the
// replica-lag gauge records how many desired replicas missed the round.
func (p *Provider) checkpointStateful(slot *pipelineSlot, view MemberView, iteration uint64) {
	sb, ok := slot.backend.(StatefulBackend)
	if !ok {
		return
	}
	succ := ringSuccessors(view, p.mi.Addr(), p.replicaCount())
	if len(succ) == 0 {
		return // replication disabled, or a single-member view
	}
	reg := p.observer()
	errs := reg.Counter("core.state.checkpoint.errors")
	state, err := sb.ExportState()
	if err != nil {
		errs.Inc()
		return
	}
	if len(state) == 0 {
		return
	}
	if len(state) > maxCheckpointBytes {
		errs.Inc()
		return
	}
	payload, _ := json.Marshal(ckptMsg{
		Pipeline:  slot.name,
		Origin:    p.mi.Addr(),
		Iteration: iteration,
		Epoch:     view.Epoch,
		Replicas:  succ,
		State:     state,
	})
	acked := 0
	for _, addr := range succ {
		if p.transfer(addr, "checkpoint_state", payload, checkpointTimeout, checkpointRetry, errs) != nil {
			continue
		}
		acked++
		reg.Counter("core.state.checkpoint.bytes", "pipeline", slot.name).Add(int64(len(state)))
	}
	reg.Counter("core.state.checkpoint.count", "pipeline", slot.name).Inc()
	reg.Gauge("core.state.replica.lag").Set(int64(len(succ) - acked))
	p.ckptMu.Lock()
	p.sentReplicas[slot.name] = succ
	p.ckptMu.Unlock()
}

// handleCheckpointState stores a peer's replicated checkpoint. A stale
// round (older iteration for the same pipeline/origin) never overwrites a
// newer one — replication retries may arrive out of order.
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
	p.ckptMu.Lock()
	if cur, ok := p.ckpts[key]; !ok || msg.Iteration >= cur.iteration {
		p.ckpts[key] = &ckptEntry{
			iteration: msg.Iteration,
			epoch:     msg.Epoch,
			replicas:  msg.Replicas,
			state:     msg.State,
		}
	}
	p.ckptMu.Unlock()
	return []byte("ok"), nil
}

// handleCheckpointDiscard drops a held checkpoint: the origin's state moved
// somewhere safe (an acknowledged migration), so recovering from the
// replica would double-count it.
func (p *Provider) handleCheckpointDiscard(req mercury.Request) ([]byte, error) {
	var msg ckptDiscardMsg
	if err := json.Unmarshal(req.Payload, &msg); err != nil {
		return nil, err
	}
	p.ckptMu.Lock()
	delete(p.ckpts, ckptKey{pipeline: msg.Pipeline, origin: msg.Origin})
	p.ckptMu.Unlock()
	return []byte("ok"), nil
}

// discardReplicas tells the holders of this server's last checkpoint round
// for the pipeline to drop it. Called after a migration was acknowledged;
// best effort beyond the usual retries — a lost discard is caught by the
// importer-side idempotence the StatefulBackend contract requires.
func (p *Provider) discardReplicas(pipeline string) {
	p.ckptMu.Lock()
	targets := p.sentReplicas[pipeline]
	delete(p.sentReplicas, pipeline)
	p.ckptMu.Unlock()
	if len(targets) == 0 {
		return
	}
	payload, _ := json.Marshal(ckptDiscardMsg{Pipeline: pipeline, Origin: p.mi.Addr()})
	errs := p.observer().Counter("core.state.checkpoint.errors")
	for _, addr := range targets {
		_ = p.transfer(addr, "checkpoint_discard", payload, checkpointTimeout, checkpointRetry, errs) // counted; best effort
	}
}

// recoverOrphans re-seeds orphaned checkpoints — state whose origin server
// fell out of the newly committed view — into the local pipeline instance.
// handleCommit calls this with slot.mu held, before the backend activates,
// so the recovered state is in place when the iteration starts. Only the
// first replica holder still present in the view imports; later holders
// drop their copy, and an import failure keeps the entry so the next
// commit retries (and the failure is counted, never silent).
func (p *Provider) recoverOrphans(slot *pipelineSlot, view MemberView) {
	self := p.mi.Addr()
	type orphan struct {
		key   ckptKey
		entry *ckptEntry
	}
	var orphans []orphan
	p.ckptMu.Lock()
	for k, e := range p.ckpts {
		if k.pipeline != slot.name {
			continue
		}
		if view.RankOf(k.origin) >= 0 {
			continue // origin is alive; its instance still owns this state
		}
		orphans = append(orphans, orphan{key: k, entry: e})
	}
	p.ckptMu.Unlock()
	if len(orphans) == 0 {
		return
	}
	reg := p.observer()
	for _, o := range orphans {
		importer := ""
		for _, r := range o.entry.replicas {
			if view.RankOf(r) >= 0 {
				importer = r
				break
			}
		}
		if importer == "" {
			// No replica holder is in this view (we hold a copy but are not
			// part of the iteration's group, e.g. a concurrently shrinking
			// view); keep the entry for a later commit.
			continue
		}
		if importer != self {
			// An earlier ring replica owns this recovery; drop our copy so
			// the orphan is imported exactly once.
			p.dropCkpt(o.key)
			continue
		}
		sb, ok := slot.backend.(StatefulBackend)
		if !ok {
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

// MigrationStatus summarizes the state-migration outcome of a leave, so a
// partial migration is reported instead of silently shrugged off.
type MigrationStatus struct {
	Attempted int `json:"attempted"` // stateful pipelines with state to move
	Migrated  int `json:"migrated"`  // acknowledged by a successor
	// Failed lists pipelines whose state found no taker. Their checkpoint
	// replicas (if any) are left in place: crash recovery is the backstop.
	Failed []string `json:"failed,omitempty"`
}

// Partial reports whether some stateful pipeline could not be migrated.
func (s MigrationStatus) Partial() bool { return len(s.Failed) > 0 }

// LastMigration returns the outcome of this server's leave-time state
// migration, or nil before a leave has completed.
func (p *Provider) LastMigration() *MigrationStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lastMigration
}

// handleMigrationStatus serves the leave-time migration outcome to
// operators (colza-ctl / AdminClient.MigrationStatus).
func (p *Provider) handleMigrationStatus(req mercury.Request) ([]byte, error) {
	st := p.LastMigration()
	if st == nil {
		return nil, fmt.Errorf("colza: no leave has completed on this server")
	}
	return json.Marshal(*st)
}

// ringAfter orders members as the ring successors of self: everyone after
// self in sorted (rank) order, wrapping around, self excluded.
func ringAfter(members []string, self string) []string {
	if len(members) == 0 {
		return nil
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	i := sort.SearchStrings(sorted, self)
	out := make([]string, 0, len(sorted))
	for k := 1; k <= len(sorted); k++ {
		m := sorted[(i+k)%len(sorted)]
		if m != self {
			out = append(out, m)
		}
	}
	return out
}
