// Package mercury implements the remote-procedure-call layer of the stack,
// modeled on Mercury from the Mochi suite: named RPCs with request/response
// semantics on top of the NA message layer, plus RDMA-style bulk transfers.
// As in Mercury, a large region is not pushed inside an RPC payload: the
// owner exposes a registered memory region and sends a compact handle, and
// the peer pulls the bytes on demand (rendezvous). A small region — at most
// eagerLimit bytes, on a transport that has no shared-memory arena to publish
// it in — is sent eagerly instead: the serialized handle carries the bytes,
// and the peer reads them out of the request they arrived in, with no second
// round trip. Colza's stage() call uses one interface for both (the
// simulation exposes its block and sends the handle, the staging server
// fetches the region behind it); the size of the block decides which it gets.
package mercury

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colza/internal/bufpool"
	"colza/internal/na"
	"colza/internal/obs"
)

// Errors returned by calls.
var (
	// ErrTimeout indicates no response arrived within the call deadline.
	ErrTimeout = errors.New("mercury: call timed out")
	// ErrUnknownRPC indicates the callee has no handler with that name.
	ErrUnknownRPC = errors.New("mercury: unknown rpc")
	// ErrClosed indicates the class has been finalized.
	ErrClosed = errors.New("mercury: class closed")
	// ErrBadBulk indicates an invalid bulk handle or range.
	ErrBadBulk = errors.New("mercury: invalid bulk handle")
	// ErrBusy indicates the callee shed the request before running its
	// handler (execution-stream queue full). The request definitely did not
	// execute, so it is always safe to retry — even non-idempotent ones.
	// Returned errors are *BusyError values carrying a backoff hint; match
	// with errors.Is(err, ErrBusy) or errors.As.
	ErrBusy = errors.New("mercury: server busy")
)

// BusyError is the retryable overload signal: the callee refused to queue
// the request and suggests the caller wait RetryAfter before reissuing. It
// travels on the wire as its own response status (not a RemoteError), so
// callers can distinguish "shed at admission" from "handler failed".
type BusyError struct{ RetryAfter time.Duration }

func (e *BusyError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("mercury: server busy (retry after %v)", e.RetryAfter)
	}
	return "mercury: server busy"
}

// Is makes errors.Is(err, ErrBusy) succeed on wire-decoded busy responses.
func (e *BusyError) Is(target error) bool { return target == ErrBusy }

// RemoteError carries an error string produced by a remote handler.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "mercury: remote: " + e.Msg }

// Request is what a handler receives.
type Request struct {
	From    string // caller address
	Name    string // RPC name
	Payload []byte

	// defers collects response-flush callbacks (Request.Defer). serve owns
	// the pointed-to context and recycles it after running the callbacks,
	// so Defer must not be called after the handler returns.
	defers *deferCtx
}

// Defer schedules fn to run after this request's response frame has been
// handed to the transport. A handler whose side effect must not precede its
// own response — the canonical case is a leave handler shutting the server
// down — registers the effect here instead of racing a sleep against the
// transport. fn runs synchronously on the serve goroutine once the response
// Send has returned; on a zero-value Request (direct handler invocation in
// tests) fn runs on its own goroutine immediately. Defer is only valid
// during the handler invocation; do not retain the Request and call it
// later.
func (r Request) Defer(fn func()) {
	if r.defers != nil {
		r.defers.add(fn)
		return
	}
	go fn()
}

// deferCtx is the per-request list behind Request.Defer. Instances are
// pooled: one rides along every dispatched request, so allocating per
// request would tax the stage hot path.
type deferCtx struct {
	mu  sync.Mutex
	fns []func()
}

var deferPool = sync.Pool{New: func() any { return new(deferCtx) }}

func (d *deferCtx) add(fn func()) {
	d.mu.Lock()
	d.fns = append(d.fns, fn)
	d.mu.Unlock()
}

// run executes and clears the registered callbacks, in registration order.
func (d *deferCtx) run() {
	d.mu.Lock()
	fns := d.fns
	d.fns = nil
	d.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// Handler serves one RPC. The returned bytes become the response payload;
// a non-nil error is transported to the caller as a *RemoteError.
type Handler func(req Request) ([]byte, error)

// CallHook intercepts outgoing calls before the request frame is sent; a
// non-nil return fails the call locally without sending. The hook may also
// sleep to delay specific RPCs. Used by the chaos harness to target
// individual RPC names (prepare, commit, stage, ...) on the caller side.
type CallHook func(to, name string) error

// ServeHook intercepts incoming requests before their handler runs; a
// non-nil return is sent to the caller as a *RemoteError and the handler is
// skipped. The callee-side analog of CallHook.
type ServeHook func(req Request) error

// Dispatcher schedules the execution of an incoming request's handler. run
// performs the complete serve (handler + response send) and must be invoked
// exactly once, on whatever execution stream the dispatcher chooses. A
// non-nil return sheds the request: run is NOT invoked and the error is
// sent to the caller directly from the progress loop — return *BusyError to
// make the shed retryable with a backoff hint. The zero dispatcher (none
// installed) runs every handler on its own goroutine, the historic
// unbounded behavior; margo installs one to bind RPCs to bounded pools.
type Dispatcher func(name string, run func()) error

// DefaultTimeout is used by Call when the caller passes 0.
const DefaultTimeout = 10 * time.Second

// bulkChunk is the largest piece moved per bulk-pull round trip,
// emulating pipelined RDMA gets.
const bulkChunk = 8 << 20

const (
	kindRequest  = 1
	kindResponse = 2
)

// Response status byte values.
const (
	statusOK         = 0
	statusRemoteErr  = 1
	statusUnknownRPC = 2
	// statusBusy carries an 8-byte little-endian retry-after hint in
	// nanoseconds as its payload.
	statusBusy = 3
)

const bulkPullRPC = "__mercury/bulk_pull"

// Class binds RPC state to one NA endpoint (the analog of an hg_class with
// its progress loop). It is safe for concurrent use. Handlers run on their
// own goroutines, so a handler may itself issue RPCs.
type Class struct {
	ep na.Endpoint
	// gather is ep's scatter-gather send when the transport has one (nil
	// otherwise); see sendFrame.
	gather na.GatherSender
	// arena is ep's shared-memory bulk arena, nil without one (SharesBulk).
	arena na.LocalBulk

	mu         sync.RWMutex
	handlers   map[string]Handler
	callHook   CallHook
	serveHook  ServeHook
	dispatcher Dispatcher
	closed     bool

	pmu     sync.Mutex
	pending map[uint64]chan response

	bmu    sync.Mutex
	bulks  map[uint64][]byte
	nextID atomic.Uint64
	nextBk atomic.Uint64

	// chunk overrides bulkChunk when nonzero (SetBulkChunk).
	chunk atomic.Int64

	obsReg atomic.Pointer[obs.Registry]
	// Cached instrument handles: labeled registry lookups allocate, so the
	// call/serve/bulk hot paths resolve instruments once per rpc name.
	callM  metricsCache
	serveM metricsCache
	bulkM  bulkMetricsCache

	wg sync.WaitGroup
}

// SetObserver routes this class's metrics into r instead of the process
// default registry. Servers call it so each class reports into a per-server
// registry.
func (c *Class) SetObserver(r *obs.Registry) {
	if r != nil {
		c.obsReg.Store(r)
		// Pre-create the response-loss counter so every metrics dump carries
		// it (at zero): a response that failed to leave the endpoint must
		// never be invisible just because the counter was never touched.
		r.Counter("mercury.respond.send_errors")
		// Forward to the transport so endpoint metrics (queue depth,
		// na.route.* and na.shm.* counters) land in the same registry.
		if o, ok := c.ep.(na.Observable); ok {
			o.SetObserver(r)
		}
	}
}

func (c *Class) observer() *obs.Registry {
	if r := c.obsReg.Load(); r != nil {
		return r
	}
	return obs.Default()
}

type response struct {
	status  byte
	payload []byte
}

// New creates a Class on ep and starts its progress loop.
func New(ep na.Endpoint) *Class {
	c := &Class{
		ep:       ep,
		handlers: make(map[string]Handler),
		pending:  make(map[uint64]chan response),
		bulks:    make(map[uint64][]byte),
	}
	c.gather, _ = ep.(na.GatherSender)
	c.arena, _ = ep.(na.LocalBulk)
	c.Register(bulkPullRPC, c.handleBulkPull)
	c.wg.Add(1)
	go c.progress()
	return c
}

// Addr returns the endpoint address peers should use to call this class.
func (c *Class) Addr() string { return c.ep.Addr() }

// Register installs (or replaces) the handler for an RPC name.
func (c *Class) Register(name string, h Handler) {
	c.mu.Lock()
	c.handlers[name] = h
	c.mu.Unlock()
}

// Deregister removes a handler; pending calls fail with ErrUnknownRPC.
func (c *Class) Deregister(name string) {
	c.mu.Lock()
	delete(c.handlers, name)
	c.mu.Unlock()
}

// SetCallHook installs (or, with nil, removes) a fault-injection hook run
// before every outgoing Call.
func (c *Class) SetCallHook(h CallHook) {
	c.mu.Lock()
	c.callHook = h
	c.mu.Unlock()
}

// SetServeHook installs (or, with nil, removes) a fault-injection hook run
// before every incoming request's handler.
func (c *Class) SetServeHook(h ServeHook) {
	c.mu.Lock()
	c.serveHook = h
	c.mu.Unlock()
}

// SetDispatcher installs (or, with nil, removes) the execution-stream
// dispatcher for incoming requests.
func (c *Class) SetDispatcher(d Dispatcher) {
	c.mu.Lock()
	c.dispatcher = d
	c.mu.Unlock()
}

// Call invokes the named RPC at address to and waits for the response.
// timeout<=0 selects DefaultTimeout.
func (c *Class) Call(to, name string, payload []byte, timeout time.Duration) (resp []byte, err error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	reg := c.observer()
	m := c.callM.call(reg, name)
	m.count.Inc()
	m.bytesOut.Add(int64(len(payload)))
	start := reg.Now()
	defer func() {
		m.latency.Observe(int64(reg.Now() - start))
		if err != nil {
			m.errors.Inc()
		} else {
			m.bytesIn.Add(int64(len(resp)))
		}
	}()
	c.mu.RLock()
	hook := c.callHook
	c.mu.RUnlock()
	if hook != nil {
		if err := hook(to, name); err != nil {
			return nil, fmt.Errorf("mercury: injected call fault for %s at %s: %w", name, to, err)
		}
	}
	id := c.nextID.Add(1)
	ch := make(chan response, 1)
	c.pmu.Lock()
	c.pending[id] = ch
	c.pmu.Unlock()
	defer func() {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
	}()

	var hdr [64]byte
	sendErr := c.sendFrame(to, appendRequestHeader(hdr[:0], id, name), payload)
	if sendErr != nil {
		return nil, fmt.Errorf("mercury: send to %s: %w", to, sendErr)
	}
	timer := getTimer(timeout)
	defer putTimer(timer)
	select {
	case r := <-ch:
		switch r.status {
		case statusOK:
			return r.payload, nil
		case statusUnknownRPC:
			return nil, fmt.Errorf("%w: %s at %s", ErrUnknownRPC, name, to)
		case statusBusy:
			var ra time.Duration
			if len(r.payload) >= 8 {
				ra = time.Duration(binary.LittleEndian.Uint64(r.payload))
			}
			return nil, &BusyError{RetryAfter: ra}
		default:
			return nil, &RemoteError{Msg: string(r.payload)}
		}
	case <-timer.C:
		return nil, fmt.Errorf("%w: %s at %s", ErrTimeout, name, to)
	}
}

// progress is the endpoint receive loop: it dispatches requests to handler
// goroutines and completes pending calls with their responses.
func (c *Class) progress() {
	defer c.wg.Done()
	for {
		from, data, err := c.ep.Recv()
		if err != nil {
			return
		}
		if len(data) < 9 {
			continue
		}
		kind := data[0]
		id := binary.LittleEndian.Uint64(data[1:9])
		body := data[9:]
		switch kind {
		case kindRequest:
			name, payload, ok := splitRequest(body)
			if !ok {
				continue
			}
			c.mu.RLock()
			h := c.handlers[name]
			d := c.dispatcher
			c.mu.RUnlock()
			if d == nil {
				go c.serve(from, id, name, payload, h)
				continue
			}
			if err := d(name, func() { c.serve(from, id, name, payload, h) }); err != nil {
				// Shed at admission: no handler goroutine exists for this
				// request, so the refusal is sent inline from the progress
				// loop. The frame is tiny; with transport write deadlines
				// this cannot wedge the loop.
				c.respondError(from, id, name, err)
			}
		case kindResponse:
			if len(body) < 1 {
				continue
			}
			c.pmu.Lock()
			ch := c.pending[id]
			c.pmu.Unlock()
			if ch != nil {
				ch <- response{status: body[0], payload: body[1:]}
			}
		}
	}
}

func (c *Class) serve(from string, id uint64, name string, payload []byte, h Handler) {
	reg := c.observer()
	m := c.serveM.serve(reg, name)
	m.count.Inc()
	m.bytesIn.Add(int64(len(payload)))
	start := reg.Now()
	var status byte
	var out []byte
	var dc *deferCtx
	if h == nil {
		status = statusUnknownRPC
	} else {
		dc = deferPool.Get().(*deferCtx)
		req := Request{From: from, Name: name, Payload: payload, defers: dc}
		c.mu.RLock()
		sh := c.serveHook
		c.mu.RUnlock()
		var res []byte
		var err error
		if sh != nil {
			err = sh(req)
		}
		if err == nil {
			res, err = h(req)
		}
		if err != nil {
			status, out = errorResponse(err)
		} else {
			out = res
		}
	}
	m.latency.Observe(int64(reg.Now() - start))
	if status != statusOK {
		m.errors.Inc()
	}
	c.respond(from, id, status, out)
	if dc != nil {
		// Response-flush contract: callbacks registered via Request.Defer
		// run only after the response Send has returned.
		dc.run()
		deferPool.Put(dc)
	}
}

// errorResponse maps a handler (or dispatcher) error to its wire status and
// payload. Busy errors keep their own status so the caller's retry logic
// can tell admission shedding from handler failure.
func errorResponse(err error) (status byte, out []byte) {
	var be *BusyError
	if errors.As(err, &be) {
		var hint [8]byte
		binary.LittleEndian.PutUint64(hint[:], uint64(be.RetryAfter))
		return statusBusy, hint[:]
	}
	if errors.Is(err, ErrBusy) {
		return statusBusy, nil
	}
	return statusRemoteErr, []byte(err.Error())
}

// respondError reports a request that was refused before its handler ran
// (dispatcher shed); it is counted as a served error for that RPC name.
func (c *Class) respondError(from string, id uint64, name string, err error) {
	m := c.serveM.serve(c.observer(), name)
	m.count.Inc()
	m.errors.Inc()
	status, out := errorResponse(err)
	c.respond(from, id, status, out)
}

// respond sends one response frame.
func (c *Class) respond(from string, id uint64, status byte, out []byte) {
	var hdr [10]byte
	hdr[0] = kindResponse
	binary.LittleEndian.PutUint64(hdr[1:], id)
	hdr[9] = status
	err := c.sendFrame(from, hdr[:], out)
	if err != nil {
		// The caller only ever sees a timeout when this happens; without the
		// counter a dropped response leaves zero server-side trace.
		c.observer().Counter("mercury.respond.send_errors").Inc()
	}
}

// Close finalizes the class: the endpoint is closed and the progress loop
// drained. In-flight calls fail.
func (c *Class) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.ep.Close()
	c.wg.Wait()
	return err
}

// sendFrame transmits one frame, hdr followed by payload. A transport that
// can gather sends payload as it is (hdr is cloned so that the callers' stack
// buffers need not escape); otherwise the two are joined in a pooled buffer,
// recycled at once because endpoints are done with the slice when Send
// returns (inproc copies, tcp writes synchronously).
func (c *Class) sendFrame(to string, hdr, payload []byte) error {
	if c.gather != nil {
		return c.gather.SendGather(to, bytes.Clone(hdr), payload)
	}
	frame := bufpool.Get(len(hdr) + len(payload))
	copy(frame[copy(frame, hdr):], payload)
	err := c.ep.Send(to, frame)
	bufpool.Put(frame)
	return err
}

// appendRequestHeader appends everything of a request frame but its payload.
func appendRequestHeader(dst []byte, id uint64, name string) []byte {
	dst = append(dst, kindRequest)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	return append(dst, name...)
}

func splitRequest(body []byte) (name string, payload []byte, ok bool) {
	if len(body) < 4 {
		return "", nil, false
	}
	nl := int(binary.LittleEndian.Uint32(body))
	if len(body) < 4+nl {
		return "", nil, false
	}
	return string(body[4 : 4+nl]), body[4+nl:], true
}

// RPCNameOf extracts the RPC name from a raw request frame. It is the
// classifier transport-level fault plans use to target specific RPCs
// (na.FaultPlan.SetClassifier); ok is false for responses and frames that
// are not Mercury requests.
func RPCNameOf(frame []byte) (name string, ok bool) {
	if len(frame) < 9 || frame[0] != kindRequest {
		return "", false
	}
	name, _, ok = splitRequest(frame[9:])
	return name, ok
}

// timerPool recycles call-timeout timers: every RPC needs one, and a fresh
// time.NewTimer costs two allocations. Timers are returned stopped and
// drained, so Reset on reuse is race-free (single-goroutine ownership
// between getTimer and putTimer).
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putTimer(t *time.Timer) {
	if !t.Stop() {
		// Fired (and possibly already received from): make sure C is empty
		// before the timer is reused.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}
