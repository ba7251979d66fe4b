package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
)

// leaveBlocks 100-byte blocks are staged per iteration, whatever the view
// (6 divides evenly over 1, 2 and 3 servers), so after n iterations the
// fault-free sum of "total" over the ranks is n * leaveIterBytes.
const (
	leaveBlocks    = 6
	leaveIterBytes = leaveBlocks * 100
)

var ckptRPC = margo.ProviderRPCName(ProviderID, "checkpoint_state")

// leaveRun is one schedule in flight: the deployment, and which of its
// servers have departed (left or crashed) so far.
type leaveRun struct {
	*deployment
	t     *testing.T
	r     int // -state-replicas of every server; 0 is off
	gone  map[int]bool
	iters uint64 // iterations run so far
	// lost is the state a schedule destroys on purpose: bytes a crashed
	// origin accumulated after its last replicated round.
	lost float64
}

func (l *leaveRun) survivors() []*Server {
	var out []*Server
	for i, s := range l.servers {
		if !l.gone[i] {
			out = append(out, s)
		}
	}
	return out
}

// settle waits until every survivor's view is exactly the survivors.
func (l *leaveRun) settle() {
	l.t.Helper()
	live := l.survivors()
	if err := WaitMembers(live, len(live), 15*time.Second); err != nil {
		l.t.Fatal(err)
	}
}

// leave asks server i to leave and waits for the rest to see it gone.
func (l *leaveRun) leave(i int) {
	l.t.Helper()
	if err := l.admin.RequestLeave(l.servers[i].Addr()); err != nil {
		l.t.Fatalf("leave srv%d: %v", i, err)
	}
	l.gone[i] = true
	l.settle()
}

// crash stops server i without any announcement.
func (l *leaveRun) crash(i int) {
	l.t.Helper()
	l.servers[i].Shutdown()
	l.gone[i] = true
	l.settle()
}

// join starts one more server under the given name, with the pipeline.
func (l *leaveRun) join(name string) {
	l.t.Helper()
	cfg := ServerConfig{SSG: fastSSG(int64(len(l.servers) + 1)), Bootstrap: l.servers[0].Addr(), StateReplicas: l.replicas()}
	s, err := StartInprocServer(l.net, name, cfg)
	if err != nil {
		l.t.Fatal(err)
	}
	l.servers = append(l.servers, s)
	l.prepare(s)
	l.settle()
}

// replicas is r as ServerConfig.StateReplicas spells it.
func (l *leaveRun) replicas() int {
	if l.r == 0 {
		return -1
	}
	return l.r
}

// prepare gives a server the pipeline and takes the wall clock out of its
// checkpoint retries.
func (l *leaveRun) prepare(s *Server) {
	l.t.Helper()
	s.Provider.SetTransferSleep(func(time.Duration) {})
	if err := l.admin.CreatePipeline(s.Addr(), "acc", "stateful", nil); err != nil {
		l.t.Fatal(err)
	}
}

// iterate runs the next iteration from the first survivor and returns the
// sum of "total" over the ranks; mid, when non-nil, runs between stage and
// execute.
func (l *leaveRun) iterate(mid func()) float64 {
	l.t.Helper()
	l.iters++
	it := l.iters
	h := l.client.Handle("acc", l.survivors()[0].Addr())
	h.SetTimeout(5 * time.Second)
	if _, err := h.Activate(it); err != nil {
		l.t.Fatalf("activate(%d): %v", it, err)
	}
	for b := 0; b < leaveBlocks; b++ {
		if err := h.Stage(it, BlockMeta{BlockID: b}, make([]byte, 100)); err != nil {
			l.t.Fatalf("stage(%d, %d): %v", it, b, err)
		}
	}
	if mid != nil {
		mid()
	}
	res, err := h.Execute(it)
	if err != nil {
		l.t.Fatalf("execute(%d): %v", it, err)
	}
	if err := h.Deactivate(it); err != nil {
		l.t.Fatalf("deactivate(%d): %v", it, err)
	}
	var sum float64
	for _, r := range res {
		sum += r.Summary["total"]
	}
	return sum
}

// leaveSchedule is one row of the table: what happens to a deployment
// between (or during) its first and last iteration.
type leaveSchedule struct {
	name    string
	servers int
	minR    int               // a crash, or a leave that hands nothing over, needs a replica
	partial bool              // the leavers report state without a taker
	waits   bool              // sits out a checkpoint timeout: its runs overlap
	during  func(l *leaveRun) // between stage and execute of iteration 1
	between func(l *leaveRun) // between the first and the last iteration
}

// leaveSchedules is the table of leave and crash schedules. Every row is
// held to the same four facts by runLeaveSchedule: nothing lost, nothing
// imported twice, one recovery per departed origin, and no checkpoint left
// behind that the surviving view does not call for.
var leaveSchedules = []leaveSchedule{
	{name: "leave/plain", servers: 2,
		between: func(l *leaveRun) { l.leave(1) }},
	{name: "leave/deferred-mid-iteration", servers: 3,
		during: func(l *leaveRun) {
			if err := l.admin.RequestLeave(l.servers[1].Addr()); err != nil {
				l.t.Fatal(err)
			}
			if n := len(l.servers[1].Group.Members()); n != 3 {
				l.t.Fatalf("departure was not deferred: the leaver sees %d members", n)
			}
			l.gone[1] = true
		},
		between: func(l *leaveRun) { l.settle() }},
	{name: "leave/holder-of-a-live-origin", servers: 3,
		between: func(l *leaveRun) {
			// srv1 holds srv0's checkpoint (its ring successor); after the
			// leave srv2 holds it, next to srv1's own.
			l.leave(1)
			if held := l.servers[2].Provider.HeldCheckpoints(); l.r > 0 && held != 2 {
				l.t.Fatalf("srv2 holds %d checkpoints after srv1 left, want 2 (srv0's was not handed on)", held)
			}
		}},
	{name: "leave/newcomer-sorts-between-leaver-and-holder", servers: 2,
		between: func(l *leaveRun) {
			// "srv0a" joined after iteration 1 and sorts between the leaver
			// srv0 and the holder srv1: it must not become a second importer.
			l.join("srv0a")
			l.leave(0)
		}},
	{name: "two-leaves/at-once", servers: 3,
		between: func(l *leaveRun) {
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := l.admin.RequestLeave(l.servers[i].Addr()); err != nil {
						l.t.Errorf("leave srv%d: %v", i, err)
					}
				}()
				l.gone[i] = true
			}
			wg.Wait()
			l.settle()
		}},
	{name: "two-leaves/first-parked-on-second", servers: 3,
		between: func(l *leaveRun) {
			// srv0's ring successor is srv1: its state is parked there when
			// srv1 is asked to leave too.
			l.leave(0)
			if l.servers[1].Provider.HeldCheckpoints() == 0 {
				l.t.Fatal("srv0's state was not parked on srv1")
			}
			l.leave(1)
		}},
	{name: "crash/origin-then-leave-of-its-only-holder", servers: 3, minR: 1,
		between: func(l *leaveRun) {
			l.crash(0)
			l.leave(1)
		}},
	{name: "redelivery/ack-lost", servers: 2, waits: true,
		between: func(l *leaveRun) {
			// The holder stores the leave round but its "ok" never reaches the
			// leaver, whose retry delivers the same round again.
			plan := na.NewFaultPlan(1).SetClassifier(func(frame []byte) string {
				if name, ok := mercury.RPCNameOf(frame); ok {
					return name
				}
				if len(frame) >= 10 && string(frame[10:]) == "ok" {
					return "ok-reply"
				}
				return ""
			})
			plan.Add(na.FaultRule{From: l.servers[0].Addr(), To: l.servers[1].Addr(), Label: "ok-reply", Nth: 1, Drop: true})
			l.net.SetFaultPlan(plan)
			defer l.net.SetFaultPlan(nil)
			l.leave(1)
			if plan.Fired(0) != 1 {
				l.t.Fatalf("no acknowledgement was dropped (%s)", plan)
			}
			if n := l.servers[1].Obs.Counter("core.state.checkpoint.errors").Value(); n != 1 {
				l.t.Fatalf("leaver counted %d failed attempts, want the one timeout", n)
			}
		}},
	{name: "dropped/every-leave-time-transfer", servers: 2, minR: 1, partial: true,
		between: func(l *leaveRun) {
			plan := na.NewFaultPlan(1).SetClassifier(rpcName)
			plan.Add(na.FaultRule{From: l.servers[1].Addr(), Label: ckptRPC, Refuse: true})
			l.net.SetFaultPlan(plan)
			defer l.net.SetFaultPlan(nil)
			l.leave(1)
			// One target, three attempts, all counted; the round after
			// deactivate(1) is still on srv0 and recovers the state.
			if n := l.servers[1].Obs.Counter("core.state.checkpoint.errors").Value(); n != 3 {
				l.t.Fatalf("leaver counted %d failed attempts, want 3", n)
			}
		}},
	{name: "stale/scale-up-then-origin-crash", servers: 2, minR: 1,
		between: func(l *leaveRun) {
			// srv1 holds srv0's iteration-1 round. "srv0a" joins and sorts
			// between them, so srv0's iteration-2 round goes to srv0a: srv1's
			// entry is stale, and must not make srv1 a second importer when
			// srv0 crashes.
			l.join("srv0a")
			if sum := l.iterate(nil); sum != 2*leaveIterBytes {
				l.t.Fatalf("iteration 2 sum = %v, want %v", sum, 2*leaveIterBytes)
			}
			l.crash(0)
		}},
	{name: "stale/origin-crash-before-its-next-round", servers: 2, minR: 1, waits: true,
		between: func(l *leaveRun) {
			// srv0 crashes between iteration 2's execute and deactivate: srv1
			// deactivates, srv0 never sends its iteration-2 round. That round
			// would have replaced srv1's entry in place (srv1 is srv0's ring
			// successor), so srv1 keeps its iteration-1 entry and recovers
			// it; only srv0's iteration-2 share, never replicated, is lost.
			l.iters++
			it := l.iters
			h := l.client.Handle("acc", l.servers[0].Addr())
			h.SetTimeout(time.Second)
			if _, err := h.Activate(it); err != nil {
				l.t.Fatalf("activate(%d): %v", it, err)
			}
			for b := 0; b < leaveBlocks; b++ {
				if err := h.Stage(it, BlockMeta{BlockID: b}, make([]byte, 100)); err != nil {
					l.t.Fatalf("stage(%d, %d): %v", it, b, err)
				}
			}
			if _, err := h.Execute(it); err != nil {
				l.t.Fatalf("execute(%d): %v", it, err)
			}
			l.crash(0)
			if err := h.Deactivate(it); err == nil {
				l.t.Fatal("deactivate reached the crashed origin")
			}
			if held := l.servers[1].Provider.HeldCheckpoints(); held != 1 {
				l.t.Fatalf("srv1 holds %d checkpoints after deactivate(2), want srv0's iteration-1 entry", held)
			}
			l.lost = leaveIterBytes / 2
		}},
}

// runLeaveSchedules runs the rows of one family under every replica count.
func runLeaveSchedules(t *testing.T, family string) {
	ran := 0
	for _, row := range leaveSchedules {
		if !strings.HasPrefix(row.name, family+"/") {
			continue
		}
		ran++
		for _, r := range []int{0, 1, 2} {
			if r < row.minR {
				continue
			}
			t.Run(fmt.Sprintf("%s/R=%d", strings.TrimPrefix(row.name, family+"/"), r), func(t *testing.T) {
				if row.waits {
					t.Parallel()
				}
				runLeaveSchedule(t, row, r)
			})
		}
	}
	if ran == 0 {
		t.Fatalf("no schedule in family %q", family)
	}
}

func runLeaveSchedule(t *testing.T, row leaveSchedule, r int) {
	l := &leaveRun{t: t, r: r, gone: map[int]bool{}}
	l.deployment = deployCfg(t, row.servers, func(i int, cfg *ServerConfig) { cfg.StateReplicas = l.replicas() })
	for _, s := range l.servers {
		l.prepare(s)
	}
	var during func()
	if row.during != nil {
		during = func() { row.during(l) }
	}
	if sum := l.iterate(during); sum != leaveIterBytes {
		t.Fatalf("iteration 1 sum = %v, want %v", sum, leaveIterBytes)
	}
	row.between(l)

	// Every graceful leaver reports what its leave round did.
	departed := 0
	for i, s := range l.servers {
		if !l.gone[i] {
			continue
		}
		departed++
		if !s.Provider.Leaving() {
			continue // crashed
		}
		st := s.Provider.LastMigration()
		lost := s.Obs.Counter("core.migrate.errors").Value()
		if st == nil || st.Attempted == 0 || st.Partial() != row.partial || (lost > 0) != row.partial {
			t.Fatalf("srv%d leave status = %+v, migrate.errors = %d; want partial = %v", i, st, lost, row.partial)
		}
	}

	if sum, want := l.iterate(nil), float64(l.iters*leaveIterBytes)-l.lost; sum != want {
		t.Fatalf("sum of totals after the schedule = %v, want %v (state lost or imported twice)", sum, want)
	}
	live := l.survivors()
	var recovered int64
	for _, s := range live {
		recovered += s.Obs.Counter("core.state.recover.count", "pipeline", "acc").Value()
		// The last iteration's rounds replaced whatever the schedule handed around:
		// each survivor holds its R ring predecessors' state and nothing else.
		if held, want := s.Provider.HeldCheckpoints(), min(r, len(live)-1); held != want {
			t.Errorf("%s holds %d checkpoints after the last iteration, want %d", s.Addr(), held, want)
		}
	}
	if recovered != int64(departed) {
		t.Errorf("recover.count over the survivors = %d, want %d (one per departed origin)", recovered, departed)
	}
}

// The schedules run under the names their anecdotes had, one per family.

// TestStatefulMigrationOnLeave: a departing server's accumulated pipeline
// state must reach a surviving member's instance, once — asked politely
// between iterations, mid-iteration, while holding a live peer's
// checkpoint, or with a newcomer in the ring.
func TestStatefulMigrationOnLeave(t *testing.T) { runLeaveSchedules(t, "leave") }

// TestTwoServersLeaveAtOnceConservesState: two leaves must not strand
// either state on the other leaver — a leaving server refuses checkpoints,
// and hands on the ones it already took.
func TestTwoServersLeaveAtOnceConservesState(t *testing.T) { runLeaveSchedules(t, "two-leaves") }

// TestLeaveOfOnlyHolderConservesCrashedOriginState: a server that leaves
// while holding the only replica of a crashed peer hands it on instead of
// taking it along.
func TestLeaveOfOnlyHolderConservesCrashedOriginState(t *testing.T) { runLeaveSchedules(t, "crash") }

// TestMigrateRetriesAndCountsDrop: a leave round whose acknowledgement is
// lost is retried, counted, and imported once although it arrived twice.
func TestMigrateRetriesAndCountsDrop(t *testing.T) { runLeaveSchedules(t, "redelivery") }

// TestFailedMigrationFallsBackToCheckpointRecovery: when every leave-time
// transfer fails, the leave still completes, the failure is counted and
// reported — and the replicas of the last deactivate round recover the
// state on the next activate.
func TestFailedMigrationFallsBackToCheckpointRecovery(t *testing.T) {
	runLeaveSchedules(t, "dropped")
}

// TestStaleHeldCheckpointNotImported: a holder whose origin moved its ring
// successor in a scale-up drops the entry it kept, so a later crash of the
// origin imports its state once, from the newest round; a holder the next
// round comes back to keeps its entry until that round lands.
func TestStaleHeldCheckpointNotImported(t *testing.T) { runLeaveSchedules(t, "stale") }

// TestMigrateStateRefusedWhileLeaving: a leaving server must not accept a
// checkpoint (it would strand it on departure).
func TestMigrateStateRefusedWhileLeaving(t *testing.T) {
	d := deploy(t, 2)
	createAccEverywhere(t, d)
	if err := d.admin.RequestLeave(d.servers[1].Addr()); err != nil {
		t.Fatal(err)
	}
	payload, _ := json.Marshal(ckptMsg{Pipeline: "acc", Origin: "inproc://peer", Iteration: 1, State: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	_, err := d.clientM.CallProvider(d.servers[1].Addr(), ProviderID, "checkpoint_state", payload, time.Second)
	if err == nil || !strings.Contains(err.Error(), "leaving") {
		t.Fatalf("checkpoint_state to a leaving server = %v, want leaving refusal", err)
	}
	if held := d.servers[1].Provider.HeldCheckpoints(); held != 0 {
		t.Fatalf("leaving server holds %d checkpoints", held)
	}
}

// TestOrphanOfStatelessOrAbsentPipelineDroppedAtCommit: a checkpoint is
// accepted on its envelope alone; when its origin is gone and the elected
// importer hosts the pipeline without state, or not at all, the next commit
// drops it and counts it — an orphan can fail to land, never linger.
func TestOrphanOfStatelessOrAbsentPipelineDroppedAtCommit(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "plain")
	self := d.servers[0].Addr()
	state := make([]byte, 8)
	binary.LittleEndian.PutUint64(state, 100)
	for _, pipeline := range []string{"plain", "ghost"} {
		payload, _ := json.Marshal(ckptMsg{Pipeline: pipeline, Origin: "inproc://gone", Iteration: 1, Replicas: []string{self}, State: state})
		if _, err := d.clientM.CallProvider(self, ProviderID, "checkpoint_state", payload, time.Second); err != nil {
			t.Fatalf("checkpoint for %q refused: %v", pipeline, err)
		}
	}
	if held := d.servers[0].Provider.HeldCheckpoints(); held != 2 {
		t.Fatalf("server holds %d checkpoints, want 2", held)
	}
	h := d.client.Handle("plain", self)
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	if held := d.servers[0].Provider.HeldCheckpoints(); held != 0 {
		t.Fatalf("server still holds %d orphans after a commit", held)
	}
	if n := d.servers[0].Obs.Counter("core.state.checkpoint.errors").Value(); n != 2 {
		t.Fatalf("checkpoint.errors = %d, want 2 (one per orphan nothing could take)", n)
	}
	if n := d.servers[0].Obs.Counter("core.state.recover.count", "pipeline", "plain").Value(); n != 0 {
		t.Fatalf("recover.count = %d, want 0", n)
	}
}

// TestFailedImportKeepsOrphanForNextCommit: a blob the backend refuses is
// counted and kept, so the next commit tries again instead of losing it.
func TestFailedImportKeepsOrphanForNextCommit(t *testing.T) {
	d := deploy(t, 1)
	createAccEverywhere(t, d)
	self := d.servers[0].Addr()
	payload, _ := json.Marshal(ckptMsg{Pipeline: "acc", Origin: "inproc://gone", Iteration: 1, Replicas: []string{self}, State: []byte("bad")})
	if _, err := d.clientM.CallProvider(self, ProviderID, "checkpoint_state", payload, time.Second); err != nil {
		t.Fatal(err)
	}
	h := d.client.Handle("acc", self)
	h.SetTimeout(2 * time.Second)
	for it := uint64(1); it <= 2; it++ {
		runAccIteration(t, h, it, 1)
		if n := d.servers[0].Obs.Counter("core.state.checkpoint.errors").Value(); n != int64(it) {
			t.Fatalf("checkpoint.errors after commit %d = %d, want %d", it, n, it)
		}
		if held := d.servers[0].Provider.HeldCheckpoints(); held != 1 {
			t.Fatalf("server holds %d checkpoints after a failed import, want 1", held)
		}
	}
}

// oversizeState exports more than a checkpoint may carry.
type oversizeState struct{ statefulPipeline }

func (*oversizeState) ExportState() ([]byte, error) { return make([]byte, maxCheckpointBytes+1), nil }

func init() {
	RegisterPipelineType("oversize", func(json.RawMessage) (Backend, error) { return &oversizeState{}, nil })
}

// TestOverBoundExportCountedAtDeactivateAndLeave: the 16 MiB bound holds for
// a leave as for a deactivate round — the export is counted, never sent, and
// the leave lists the pipeline as left without a taker.
func TestOverBoundExportCountedAtDeactivateAndLeave(t *testing.T) {
	d := deploy(t, 2)
	for _, s := range d.servers {
		if err := d.admin.CreatePipeline(s.Addr(), "big", "oversize", nil); err != nil {
			t.Fatal(err)
		}
	}
	h := d.client.Handle("big", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	errs := d.servers[1].Obs.Counter("core.state.checkpoint.errors")
	if n := errs.Value(); n != 1 {
		t.Fatalf("checkpoint.errors after deactivate = %d, want 1", n)
	}
	if err := d.admin.RequestLeave(d.servers[1].Addr()); err != nil {
		t.Fatal(err)
	}
	st := d.servers[1].Provider.LastMigration()
	if st == nil || st.Attempted != 1 || st.Migrated != 0 || len(st.Failed) != 1 || st.Failed[0] != "big" {
		t.Fatalf("leave status = %+v, want big attempted and left without a taker", st)
	}
	if n := errs.Value(); n != 2 {
		t.Fatalf("checkpoint.errors after the leave = %d, want 2", n)
	}
	if held := d.servers[0].Provider.HeldCheckpoints(); held != 0 {
		t.Fatalf("an over-bound checkpoint was sent: survivor holds %d", held)
	}
}
