package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"colza/internal/bufpool"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/obs"
)

// ErrActivateFailed is returned when the activate 2PC cannot reach
// agreement after retries (e.g. persistent membership churn).
var ErrActivateFailed = errors.New("colza: activate could not reach agreement")

// ErrHandleClosed is returned by operations on a closed pipeline handle:
// pending batched blocks fail with it, and an in-progress retry backoff is
// cut short instead of burning the full schedule.
var ErrHandleClosed = errors.New("colza: pipeline handle closed")

// SpanKeyFor builds the client-side span key for a pipeline iteration
// (rank -1 marks the simulation side, which has no staging rank).
func SpanKeyFor(pipeline string, it uint64) obs.SpanKey {
	return obs.SpanKey{Pipeline: pipeline, Iteration: it, Rank: -1}
}

// Client is a simulation-side connection to the staging area. One Client
// serves any number of pipeline handles.
type Client struct {
	mi *margo.Instance

	obsReg atomic.Pointer[obs.Registry]
}

// NewClient creates a client on the given Margo instance.
func NewClient(mi *margo.Instance) *Client {
	return &Client{mi: mi}
}

// SetObserver routes the client's metrics and spans into r (and the
// underlying Margo instance's RPC metrics with them). Tests and benchmarks
// give each simulated client rank its own registry this way.
func (c *Client) SetObserver(r *obs.Registry) {
	if r == nil {
		return
	}
	c.obsReg.Store(r)
	c.mi.SetObserver(r)
}

func (c *Client) observer() *obs.Registry {
	if r := c.obsReg.Load(); r != nil {
		return r
	}
	return obs.Default()
}

// clientBusyRetries bounds the client's built-in busy retry loop: a busy
// response means the request was shed before executing, so reissuing is
// always safe; the loop honors the server's Retry-After hint. Operations
// with their own retry policies (Stage, activate rounds) still see busy as
// retryable if this inner loop exhausts.
const clientBusyRetries = 8

// call invokes a colza RPC. Busy responses (admission shedding) are
// retried in place under the server's backoff hint: the server is alive
// and just loaded.
func (c *Client) call(addr, rpc string, payload []byte, timeout time.Duration) ([]byte, error) {
	return c.callUntil(nil, addr, rpc, payload, nil, timeout)
}

// callUntil is call with a busy backoff that ends as soon as stop closes
// (a nil stop never does), with an error wrapping ErrHandleClosed, and with
// the request handed over as payload then tail (mercury.Class.CallGather).
// The stage path passes its handle's closed channel, so a Close during a
// shed-and-retry does not wait out the schedule, and its frame's head and
// eager region.
func (c *Client) callUntil(stop <-chan struct{}, addr, rpc string, payload, tail []byte, timeout time.Duration) ([]byte, error) {
	name, ok := providerRPCNames[rpc]
	if !ok {
		name = margo.ProviderRPCName(ProviderID, rpc)
	}
	for attempt := 0; ; attempt++ {
		out, err := c.mi.Class().CallGather(addr, name, payload, tail, timeout)
		cls := Classify(err)
		if cls == ClassOK {
			return out, nil
		}
		c.observer().Counter("colza.call.errors", "rpc", rpc, "class", cls.String()).Inc()
		if cls == ClassBusy {
			// One increment per busy response received keeps this counter
			// balanced against the servers' margo.pool.shed.
			c.observer().Counter("core.client.retries.busy", "rpc", rpc).Inc()
			if attempt < clientBusyRetries {
				if !sleepUnless(stop, busyBackoff(err, attempt)) {
					return nil, fmt.Errorf("colza: %s aborted in its busy backoff: %w", rpc, ErrHandleClosed)
				}
				continue
			}
		}
		return out, err
	}
}

// callEach is call to every address of addrs at once, on the caller's
// goroutine (mercury.Class.CallEach): f's responses and errors, one per
// address, get what call would have returned for it. Busy responses are
// retried as call retries them, for the busy addresses only, after the
// longest backoff their hints ask for.
func (c *Client) callEach(addrs []string, rpc string, payload []byte, timeout time.Duration, f *fanout) {
	name := providerRPCNames[rpc]
	cl := c.mi.Class()
	cl.CallEach(addrs, name, payload, timeout, f.outs, f.errs)
	busy := c.noteErrors(rpc, f.errs, nil)
	for attempt := 0; len(busy) > 0 && attempt < clientBusyRetries; attempt++ {
		var wait time.Duration
		sub := getFanout(len(busy))
		again := make([]string, len(busy))
		for k, i := range busy {
			again[k] = addrs[i]
			wait = max(wait, busyBackoff(f.errs[i], attempt))
		}
		time.Sleep(wait)
		cl.CallEach(again, name, payload, timeout, sub.outs, sub.errs)
		for k, i := range busy {
			f.outs[i], f.errs[i] = sub.outs[k], sub.errs[k]
		}
		busy = c.noteErrors(rpc, sub.errs, busy)
		clear(sub.outs) // they are f's now
		sub.put()
	}
}

// noteErrors counts the failed calls among errs as call does, and returns
// the positions of those that were shed busy, mapped through at when it is
// non-nil (at[k] is the position of errs[k] in the first round). No
// allocation when nothing was busy.
func (c *Client) noteErrors(rpc string, errs []error, at []int) []int {
	var busy []int
	for k, err := range errs {
		if err == nil {
			continue
		}
		cls := Classify(err)
		c.observer().Counter("colza.call.errors", "rpc", rpc, "class", cls.String()).Inc()
		if cls != ClassBusy {
			continue
		}
		// One increment per busy response received keeps this counter
		// balanced against the servers' margo.pool.shed.
		c.observer().Counter("core.client.retries.busy", "rpc", rpc).Inc()
		if at != nil {
			k = at[k]
		}
		busy = append(busy, k)
	}
	return busy
}

// fanout is the scratch of one call round to every member of a view: one
// response and one error per member. Rounds run every iteration, so the
// scratch is pooled.
type fanout struct {
	outs [][]byte
	errs []error
}

var fanouts = sync.Pool{New: func() any { return new(fanout) }}

func getFanout(n int) *fanout {
	f := fanouts.Get().(*fanout)
	f.outs = slices.Grow(f.outs[:0], n)[:n]
	f.errs = slices.Grow(f.errs[:0], n)[:n]
	return f
}

// put recycles the responses still in f, then f itself.
func (f *fanout) put() {
	for _, out := range f.outs {
		mercury.Recycle(out)
	}
	clear(f.outs)
	clear(f.errs)
	fanouts.Put(f)
}

// sleepUnless sleeps d unless stop closes first (a nil stop never does); it
// reports whether the full sleep elapsed. Retry loops pass their handle's
// closed channel, so a handle being torn down returns promptly instead of
// serving out its backoff schedule.
func sleepUnless(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// busyBackoff turns the server's Retry-After hint into the sleep before the
// next attempt: the hint (1ms when absent), doubled per consecutive busy
// response, capped, plus up to 100% jitter so retries from many ranks
// decorrelate instead of re-arriving as the next synchronized burst.
func busyBackoff(err error, attempt int) time.Duration {
	const ceiling = 100 * time.Millisecond
	d := BusyRetryAfter(err)
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 0; i < attempt && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	return d + time.Duration(rand.Int63n(int64(d)+1))
}

// FetchView asks contact for the current membership, in one members call.
// The returned view is normalized; Epoch is zero (set during activation). A
// member that has just died may still be in it: the 2PC validates whatever
// view is proposed.
func (c *Client) FetchView(contact string, timeout time.Duration) (MemberView, error) {
	raw, err := c.call(contact, "members", nil, timeout)
	if err != nil {
		return MemberView{}, fmt.Errorf("colza: fetching members from %s: %w", contact, err)
	}
	members, err := decodeMembersMsg(raw)
	mercury.Recycle(raw)
	if err != nil {
		return MemberView{}, fmt.Errorf("colza: members from %s: %w", contact, err)
	}
	if len(members) == 0 {
		return MemberView{}, fmt.Errorf("colza: no servers via %s", contact)
	}
	v := MemberView{Members: members}
	v.Normalize()
	return v, nil
}

// DefaultPlacement is the paper's placement, the one every handle uses:
// block id modulo server count (of the id's magnitude, for a negative id).
func DefaultPlacement(meta BlockMeta, servers int) int {
	if servers <= 0 {
		return 0
	}
	id := uint64(meta.BlockID)
	if meta.BlockID < 0 {
		id = -id // the magnitude, also of math.MinInt, which int cannot hold
	}
	return int(id % uint64(servers))
}

// DistributedPipelineHandle references one pipeline instance on every
// server of the staging area (the paper's distributed pipeline handle).
// The driver rank calls Activate/Execute/Deactivate; every client rank may
// call Stage. Non-driver ranks receive the frozen view via SetView.
type DistributedPipelineHandle struct {
	c        *Client
	pipeline string
	contact  string

	mu         sync.Mutex
	view       MemberView
	timeout    time.Duration
	stageRetry RetryPolicy
	viewRetry  RetryPolicy
	rng        *rand.Rand

	codec stageCodecState

	// names interns the summary names of the execute results this handle
	// decodes (decodeExecResult).
	names internTable

	// closed cancels retry backoffs and fails pending batched work when
	// the handle is released (Close); closeOnce makes Close idempotent.
	closed    chan struct{}
	closeOnce sync.Once

	// batch, when non-nil, routes Stage/NBStage through the coalescing
	// batcher; set at creation and never changed (see Handle).
	batch *stageBatcher

	// nbSem bounds per-block NBStage concurrency (lazily created).
	nbOnce sync.Once
	nbSem  chan struct{}

	stageM atomic.Pointer[stageMetrics]
}

// stageMetrics are a handle's per-block stage instruments. A labeled
// registry lookup composes a key string, so they are resolved once per
// registry instead of per block (the idiom of mercury's metricsCache).
type stageMetrics struct {
	reg           *obs.Registry
	bytes         *obs.Counter
	blocks        *obs.Counter
	retries       *obs.Counter
	failed        *obs.Counter
	deltaFallback *obs.Counter
}

func (h *DistributedPipelineHandle) stageMetrics() *stageMetrics {
	reg := h.c.observer()
	if m := h.stageM.Load(); m != nil && m.reg == reg {
		return m
	}
	m := &stageMetrics{
		reg:           reg,
		bytes:         reg.Counter("colza.stage.bytes", "pipeline", h.pipeline),
		blocks:        reg.Counter("colza.stage.blocks", "pipeline", h.pipeline),
		retries:       reg.Counter("colza.stage.retries", "pipeline", h.pipeline),
		failed:        reg.Counter("colza.stage.failed", "pipeline", h.pipeline),
		deltaFallback: reg.Counter("codec.delta.fallback", "pipeline", h.pipeline),
	}
	h.stageM.Store(m)
	return m
}

// nbStageWindow bounds concurrently in-flight per-block NBStage calls per
// handle: acquire before spawn, so the goroutine count is bounded too.
const nbStageWindow = 16

// Handle creates a distributed handle on pipeline, using contact (any
// server address) to discover membership.
//
// How the handle stages is decided here, by the transport and by nothing
// else (DESIGN.md §7.3): a client whose endpoint publishes exposed regions
// in a shared-memory arena (mercury.Class.SharesBulk — sm+tcp
// endpoints) can never send a block eagerly inside its stage frame, so its
// handle coalesces the blocks bound for one server rank into one frame and
// one arena pull; on every other endpoint a block of up to 128 KiB already
// rides in its own stage RPC, and the handle stages per block.
//
// A coalescing handle assembles each pending frame in a reservation of the
// client's arena (mercury.Class.Reserve): the reservation holds the only
// copy of the frame's staged bytes, and the handle owns it from the first
// block until the frame's stage RPC returns, or until Close fails the
// frame, whichever comes first; only then is the span recycled. A frame the
// arena has no room for is assembled in pooled memory and exposed by copy.
func (c *Client) Handle(pipeline, contact string) *DistributedPipelineHandle {
	return c.newHandle(pipeline, contact, c.mi.Class().SharesBulk())
}

// newHandle is Handle with the staging mode spelled out, for tests that
// need the batcher on the in-process fault fabric.
func (c *Client) newHandle(pipeline, contact string, coalesce bool) *DistributedPipelineHandle {
	h := &DistributedPipelineHandle{
		c:          c,
		pipeline:   pipeline,
		contact:    contact,
		timeout:    10 * time.Second,
		stageRetry: DefaultStageRetry,
		viewRetry:  DefaultViewRetry,
		rng:        rand.New(rand.NewSource(1)),
		closed:     make(chan struct{}),
	}
	if coalesce {
		h.batch = newStageBatcher(h)
	}
	return h
}

// Close releases the handle: every pending batched block fails with
// ErrHandleClosed, in-flight retry backoffs are cut short, and further
// staging is refused. Close is idempotent and does not touch the staging
// area — a deactivated pipeline needs no remote teardown.
func (h *DistributedPipelineHandle) Close() {
	h.closeOnce.Do(func() { close(h.closed) })
	if h.batch != nil {
		h.batch.close()
	}
}

// BatchConfig is empty: whether a handle coalesces is decided by its
// transport (see Client.Handle) and the triggers are constants (batch.go).
type BatchConfig struct{}

// SetBatching does nothing. It remains only because benchmark/deploy.go,
// which a program change may not edit, still calls it; ROADMAP item 1 drops
// the call and this shim together.
func (h *DistributedPipelineHandle) SetBatching(BatchConfig) {}

// Flush is the explicit stage barrier: it dispatches every pending batch,
// waits for all in-flight batches to complete, and returns the deferred
// errors of this handle's coalesced sync Stage calls (joined). On a handle
// that stages per block it is a no-op. The iteration argument documents
// intent; one batcher serves all iterations and drains fully.
func (h *DistributedPipelineHandle) Flush(it uint64) error {
	if h.batch == nil {
		return nil
	}
	return h.batch.flush()
}

// SetTimeout sets the per-RPC timeout.
func (h *DistributedPipelineHandle) SetTimeout(d time.Duration) {
	h.mu.Lock()
	h.timeout = d
	h.mu.Unlock()
}

// SetStageRetry overrides the retry/backoff policy for Stage RPCs.
func (h *DistributedPipelineHandle) SetStageRetry(rp RetryPolicy) {
	h.mu.Lock()
	h.stageRetry = rp
	h.mu.Unlock()
}

// SetCodec stages every block through the named codec, "raw" or "delta" —
// the two the stage wire carries; each frame record says which codec it
// used. The default is raw: compression is strictly opt-in so the
// alloc-free raw stage path is untouched. DESIGN.md §10.3 says when delta
// pays.
func (h *DistributedPipelineHandle) SetCodec(name string) error {
	return h.codec.setCodec(name)
}

// backoff computes the jittered sleep before retry attempt k under rp.
func (h *DistributedPipelineHandle) backoff(rp RetryPolicy, k int) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return rp.Backoff(k, h.rng)
}

// refreshView fetches the current membership, failing over from the
// configured contact to the members of the last pinned view: a client must
// outlive its contact server leaving the staging area, or one departure
// strands every simulation rank that bootstrapped through it. Whoever
// answers becomes the new contact.
func (h *DistributedPipelineHandle) refreshView(timeout time.Duration) (MemberView, error) {
	h.mu.Lock()
	contacts := []string{h.contact}
	for _, m := range h.view.Members {
		if m != h.contact {
			contacts = append(contacts, m)
		}
	}
	h.mu.Unlock()
	var errs []error
	for _, addr := range contacts {
		v, err := h.c.FetchView(addr, timeout)
		if err == nil {
			h.mu.Lock()
			h.contact = addr
			h.mu.Unlock()
			return v, nil
		}
		errs = append(errs, err)
	}
	return MemberView{}, errors.Join(errs...)
}

// View returns the currently pinned member view.
func (h *DistributedPipelineHandle) View() MemberView {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.view
}

// SetView installs a view obtained out of band (how non-driver simulation
// ranks learn the frozen view after the driver's Activate).
func (h *DistributedPipelineHandle) SetView(v MemberView) {
	h.mu.Lock()
	h.view = v
	h.mu.Unlock()
	h.codec.viewPinned(h.pipeline, v)
}

// Pipeline returns the pipeline name.
func (h *DistributedPipelineHandle) Pipeline() string { return h.pipeline }

// broadcast calls an RPC on every member of the view at once, leaving each
// member's response and error in f, in rank order, and reports every
// failure (joined), not just the last one — under churn several servers can
// fail at once and the caller needs the full picture to classify the round.
func (h *DistributedPipelineHandle) broadcast(view MemberView, rpc string, payload []byte, timeout time.Duration, f *fanout) error {
	h.c.callEach(view.Members, rpc, payload, timeout, f)
	var errs []error
	for i, err := range f.errs {
		if err != nil {
			errs = append(errs, fmt.Errorf("colza: %s on %s: %w", rpc, view.Members[i], err))
		}
	}
	return errors.Join(errs...)
}

// cleanupBroadcast issues a best-effort RPC (abort/deactivate after a
// failed activate round) to every member, bounded by a short timeout, and
// returns the joined transport-level failures. It waits for the calls, so a
// slow server cannot accumulate abandoned calls across every retry.
func (h *DistributedPipelineHandle) cleanupBroadcast(view MemberView, rpc string, payload []byte, timeout time.Duration) error {
	ct := timeout / 4
	if ct < 50*time.Millisecond {
		ct = timeout
	}
	f := getFanout(len(view.Members))
	defer f.put()
	h.c.callEach(view.Members, rpc, payload, ct, f)
	var errs []error
	for i, err := range f.errs {
		// Remote refusals are expected here (a member that never prepared
		// has nothing to abort); only transport failures are worth
		// surfacing.
		if err != nil && Classify(err) != ClassRemote {
			errs = append(errs, fmt.Errorf("colza: cleanup %s on %s: %w", rpc, view.Members[i], err))
		}
	}
	return errors.Join(errs...)
}

// epochFrame encodes the epoch frame of it under view into a pooled buffer,
// which the caller puts back once its calls have returned.
func (h *DistributedPipelineHandle) epochFrame(it uint64, view MemberView) []byte {
	return appendEpoch(bufpool.Get(epochSize(h.pipeline))[:0], h.pipeline, it, view.Epoch)
}

// Activate starts iteration it: it runs the two-phase commit that pins a
// consistent member view across the client and every server, then
// activates the pipeline instances. It returns the pinned view, which the
// caller shares with its peer ranks (MemberView.Encode / SetView).
//
// If the group has no churn the first attempt succeeds (the paper's
// "no overhead if the group hasn't changed"); under churn the client
// refreshes its view and retries.
func (h *DistributedPipelineHandle) Activate(it uint64) (view_ MemberView, err_ error) {
	h.mu.Lock()
	timeout := h.timeout
	view := h.view
	viewRetry := h.viewRetry
	h.mu.Unlock()

	reg := h.c.observer()
	sp := reg.StartSpan("activate", SpanKeyFor(h.pipeline, it))
	defer func() { sp.End(err_) }()

	var lastErr error
	for attempt := 0; attempt < viewRetry.attempts(); attempt++ {
		if attempt > 0 {
			reg.Counter("colza.activate.retries", "pipeline", h.pipeline).Inc()
		}
		if attempt > 0 || len(view.Members) == 0 {
			v, err := h.refreshView(timeout)
			if err != nil {
				lastErr = err
				if !sleepUnless(h.closed, h.backoff(viewRetry, attempt)) {
					return MemberView{}, fmt.Errorf("colza: activate aborted: %w", ErrHandleClosed)
				}
				continue
			}
			view = v
		}
		view.Epoch = (it+1)<<8 | uint64(attempt&0xff)
		if ok, err := h.tryActivate(it, view, timeout); ok {
			h.mu.Lock()
			h.view = view
			h.mu.Unlock()
			h.codec.viewPinned(h.pipeline, view)
			return view, nil
		} else if err != nil {
			lastErr = err
		}
		// A failed round means our picture of the group is suspect: back
		// off to let gossip converge, then fetch the view again.
		if !sleepUnless(h.closed, h.backoff(viewRetry, attempt)) {
			return MemberView{}, fmt.Errorf("colza: activate aborted: %w", ErrHandleClosed)
		}
		view = MemberView{}
	}
	return MemberView{}, fmt.Errorf("%w: %v", ErrActivateFailed, lastErr)
}

// tryActivate performs one prepare/commit round over the proposed view.
func (h *DistributedPipelineHandle) tryActivate(it uint64, view MemberView, timeout time.Duration) (bool, error) {
	prep := appendPrepare(bufpool.Get(prepareSize(h.pipeline, view))[:0], h.pipeline, it, view)
	f := getFanout(len(view.Members))
	defer f.put()
	h.c.callEach(view.Members, "prepare", prep, timeout, f)
	bufpool.Put(prep)
	var reasons []error
	for i, err := range f.errs {
		if err != nil {
			reasons = append(reasons, fmt.Errorf("colza: prepare on %s: %w", view.Members[i], err))
			continue
		}
		yes, reason, err := decodeVote(f.outs[i])
		if err != nil {
			reasons = append(reasons, fmt.Errorf("colza: prepare on %s: %w", view.Members[i], err))
		} else if !yes {
			reasons = append(reasons, fmt.Errorf("colza: %s voted no: %s", view.Members[i], reason))
		}
	}
	ep := h.epochFrame(it, view)
	defer bufpool.Put(ep)
	if len(reasons) > 0 {
		// Abort everywhere, best effort but bounded and collected.
		if cerr := h.cleanupBroadcast(view, "abort", ep, timeout); cerr != nil {
			reasons = append(reasons, cerr)
		}
		return false, errors.Join(reasons...)
	}
	commits := getFanout(len(view.Members))
	defer commits.put()
	if err := h.broadcast(view, "commit", ep, timeout, commits); err != nil {
		// Partial commit: deactivate whatever committed, then retry.
		if cerr := h.cleanupBroadcast(view, "deactivate", ep, timeout); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return false, err
	}
	return true, nil
}

// Stage hands one block to the server DefaultPlacement selects, which
// fetches it out of the caller's memory (RDMA semantics: data is exposed, not
// pushed). The contract is the same however the handle stages (see Handle):
// data must stay unchanged until Stage returns and is the caller's again
// afterwards; a block that could not be delivered is reported by Stage
// itself or, at the latest, by the next Flush, Execute or Deactivate — a
// per-block handle reports everything at once, a coalescing handle copies
// the block into its rank's pending frame and reports send failures at that
// barrier. A block whose id or dims do not fit in int32, the stage frame's
// width, is refused at once with ErrStageWire, and nothing is sent.
//
// The stage RPC is retried under the handle's RetryPolicy on transient
// failures (timeouts, unreachable server, admission shedding). A retry after
// a timeout may duplicate a block the server already pulled, so staging is
// at-least-once, and BlockMeta carries the block id to collapse duplicates
// by. The server does not collapse them: the catalyst pipelines do, in
// their one staging store (a second copy with the same bytes is dropped,
// one with other bytes refused), and any other Backend must do it itself
// on (iteration, block id).
func (h *DistributedPipelineHandle) Stage(it uint64, meta BlockMeta, data []byte) error {
	if err := checkStageMeta(meta); err != nil {
		return err
	}
	if h.batch != nil {
		return h.batch.enqueue(it, meta, data, nil)
	}
	return h.stageBlock(it, meta, data, false)
}

// Execute triggers the pipeline's analysis on every server and returns the
// per-rank results. The paper notes this is issued by a single client
// process and coordinated across the servers.
func (h *DistributedPipelineHandle) Execute(it uint64) (res_ []ExecResult, err_ error) {
	// The execute barrier: every batched block must have landed (or failed,
	// reported here) before the servers run the pipeline on the iteration.
	if err := h.Flush(it); err != nil {
		return nil, fmt.Errorf("colza: stage flush before execute: %w", err)
	}
	h.mu.Lock()
	view := h.view
	timeout := h.timeout
	h.mu.Unlock()
	sp := h.c.observer().StartSpan("execute", SpanKeyFor(h.pipeline, it))
	defer func() { sp.End(err_) }()
	if len(view.Members) == 0 {
		return nil, fmt.Errorf("colza: execute before activate")
	}
	payload := h.epochFrame(it, view)
	defer bufpool.Put(payload)
	f := getFanout(len(view.Members))
	defer f.put()
	if err := h.broadcast(view, "execute", payload, timeout, f); err != nil {
		return nil, err
	}
	results := make([]ExecResult, len(f.outs))
	for i, raw := range f.outs {
		var err error
		if results[i], err = decodeExecResult(raw, &h.names); err != nil {
			return nil, fmt.Errorf("colza: decoding execute result from rank %d: %w", i, err)
		}
	}
	return results, nil
}

// Deactivate completes the iteration everywhere: staged data is released
// and membership unfrozen, so servers may join and leave again.
func (h *DistributedPipelineHandle) Deactivate(it uint64) (err_ error) {
	// Same barrier as Execute: a deactivate must not race batches still in
	// flight — the server would fail them with ErrNotActive.
	if err := h.Flush(it); err != nil {
		return fmt.Errorf("colza: stage flush before deactivate: %w", err)
	}
	h.mu.Lock()
	view := h.view
	timeout := h.timeout
	h.mu.Unlock()
	sp := h.c.observer().StartSpan("deactivate", SpanKeyFor(h.pipeline, it))
	defer func() { sp.End(err_) }()
	if len(view.Members) == 0 {
		return fmt.Errorf("colza: deactivate before activate")
	}
	payload := h.epochFrame(it, view)
	defer bufpool.Put(payload)
	f := getFanout(len(view.Members))
	defer f.put()
	return h.broadcast(view, "deactivate", payload, timeout, f)
}

// Async is a handle on a non-blocking handle operation (the paper's
// non-blocking activate/stage/execute/deactivate variants).
type Async struct {
	ch  chan asyncRes
	res *asyncRes
}

type asyncRes struct {
	results []ExecResult
	view    MemberView
	err     error
}

// Wait blocks for completion, returning any execute results.
func (a *Async) Wait() ([]ExecResult, error) {
	if a.res == nil {
		r := <-a.ch
		a.res = &r
	}
	return a.res.results, a.res.err
}

// View returns the view produced by a non-blocking Activate (after Wait).
func (a *Async) View() MemberView {
	if a.res == nil {
		a.Wait()
	}
	return a.res.view
}

// Test reports completion without blocking.
func (a *Async) Test() bool {
	if a.res != nil {
		return true
	}
	select {
	case r := <-a.ch:
		a.res = &r
		return true
	default:
		return false
	}
}

func asyncRun(fn func() asyncRes) *Async {
	a := &Async{ch: make(chan asyncRes, 1)}
	go func() { a.ch <- fn() }()
	return a
}

// NBActivate is the non-blocking Activate.
func (h *DistributedPipelineHandle) NBActivate(it uint64) *Async {
	return asyncRun(func() asyncRes {
		v, err := h.Activate(it)
		return asyncRes{view: v, err: err}
	})
}

// NBStage is the non-blocking Stage. On a coalescing handle the block joins
// its rank's pending batch and the Async resolves when that batch completes
// — no goroutine per call. Otherwise a window semaphore acquired before the
// goroutine spawns bounds both in-flight stages and live goroutines (a
// goroutine per call is a goroutine bomb under a simulation staging
// thousands of blocks), and data must stay unchanged until the Async
// resolves. A block Stage would refuse resolves its Async with the refusal.
func (h *DistributedPipelineHandle) NBStage(it uint64, meta BlockMeta, data []byte) *Async {
	if err := checkStageMeta(meta); err != nil {
		a := &Async{ch: make(chan asyncRes, 1)}
		a.ch <- asyncRes{err: err}
		return a
	}
	if h.batch != nil {
		a := &Async{ch: make(chan asyncRes, 1)}
		h.batch.enqueue(it, meta, data, a)
		return a
	}
	h.nbOnce.Do(func() { h.nbSem = make(chan struct{}, nbStageWindow) })
	h.nbSem <- struct{}{}
	return asyncRun(func() asyncRes {
		defer func() { <-h.nbSem }()
		return asyncRes{err: h.stageBlock(it, meta, data, false)}
	})
}

// NBExecute is the non-blocking Execute; the simulation typically uses
// this so analysis proceeds in the background while it computes the next
// iteration.
func (h *DistributedPipelineHandle) NBExecute(it uint64) *Async {
	return asyncRun(func() asyncRes {
		r, err := h.Execute(it)
		return asyncRes{results: r, err: err}
	})
}

// NBDeactivate is the non-blocking Deactivate.
func (h *DistributedPipelineHandle) NBDeactivate(it uint64) *Async {
	return asyncRun(func() asyncRes { return asyncRes{err: h.Deactivate(it)} })
}

// AdminClient drives Colza's separate admin interface: creating and
// destroying pipelines and asking servers to leave. The paper keeps it
// distinct from the client library because of the different nature of its
// functionality (it is used by users, schedulers, or autonomic agents).
type AdminClient struct {
	mi      *margo.Instance
	timeout time.Duration
}

// NewAdminClient creates an admin client on mi.
func NewAdminClient(mi *margo.Instance) *AdminClient {
	return &AdminClient{mi: mi, timeout: 10 * time.Second}
}

// CreatePipeline instantiates a pipeline of the given registered type on
// one server.
func (a *AdminClient) CreatePipeline(serverRPC, name, typeName string, config json.RawMessage) error {
	payload, _ := json.Marshal(createPipelineMsg{Name: name, Type: typeName, Config: config})
	_, err := a.mi.CallProvider(serverRPC, AdminID, "create_pipeline", payload, a.timeout)
	return err
}

// CreatePipelineEverywhere instantiates the pipeline on every server of a
// view (parallel pipelines need an instance per staging process).
func (a *AdminClient) CreatePipelineEverywhere(view MemberView, name, typeName string, config json.RawMessage) error {
	for _, m := range view.Members {
		if err := a.CreatePipeline(m, name, typeName, config); err != nil {
			return err
		}
	}
	return nil
}

// DestroyPipeline removes a pipeline from one server.
func (a *AdminClient) DestroyPipeline(serverRPC, name string) error {
	payload, _ := json.Marshal(nameMsg{Name: name})
	_, err := a.mi.CallProvider(serverRPC, AdminID, "destroy_pipeline", payload, a.timeout)
	return err
}

// ListPipelines lists pipelines instantiated on one server.
func (a *AdminClient) ListPipelines(serverRPC string) ([]string, error) {
	raw, err := a.mi.CallProvider(serverRPC, AdminID, "list_pipelines", nil, a.timeout)
	if err != nil {
		return nil, err
	}
	var out []string
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// ListTypes lists the pipeline types a server can instantiate.
func (a *AdminClient) ListTypes(serverRPC string) ([]string, error) {
	raw, err := a.mi.CallProvider(serverRPC, AdminID, "list_types", nil, a.timeout)
	if err != nil {
		return nil, err
	}
	var out []string
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// RequestLeave asks a server to exit the staging area (scale-down). The
// server defers its departure while an iteration is active.
func (a *AdminClient) RequestLeave(serverRPC string) error {
	_, err := a.mi.CallProvider(serverRPC, AdminID, "leave", nil, a.timeout)
	return err
}

// MetricsSnapshot fetches one server's metrics as a structured snapshot,
// which `colza-ctl metrics` renders as text (Snapshot.WriteText) and
// benchmarks merge across servers (HistSnapshot.Merge).
func (a *AdminClient) MetricsSnapshot(serverRPC string) (obs.Snapshot, error) {
	raw, err := a.mi.CallProvider(serverRPC, AdminID, "metrics_json", nil, a.timeout)
	if err != nil {
		return obs.Snapshot{}, err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return obs.Snapshot{}, err
	}
	return s, nil
}

// PipelineDefs fetches one server's pipeline definitions (name, type,
// config) — what the elastic controller replicates onto a new daemon.
func (a *AdminClient) PipelineDefs(serverRPC string) ([]PipelineDef, error) {
	raw, err := a.mi.CallProvider(serverRPC, AdminID, "pipeline_defs", nil, a.timeout)
	if err != nil {
		return nil, err
	}
	var out []PipelineDef
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// ElasticStatus fetches the elastic controller's status document from a
// server running with -elastic; servers without a controller return an
// error.
func (a *AdminClient) ElasticStatus(serverRPC string) (json.RawMessage, error) {
	raw, err := a.mi.CallProvider(serverRPC, AdminID, "elastic_status", nil, a.timeout)
	if err != nil {
		return nil, err
	}
	return json.RawMessage(raw), nil
}

// Trace fetches one server's retained span records (JSON lines on the
// wire), newest last.
func (a *AdminClient) Trace(serverRPC string) ([]obs.SpanRecord, error) {
	raw, err := a.mi.CallProvider(serverRPC, AdminID, "trace", nil, a.timeout)
	if err != nil {
		return nil, err
	}
	return obs.ParseTraceJSON(bytes.NewReader(raw))
}
