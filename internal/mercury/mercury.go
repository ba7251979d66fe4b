// Package mercury implements the remote-procedure-call layer of the stack,
// modeled on Mercury from the Mochi suite: named RPCs with request/response
// semantics on top of the NA message layer, one-way frames (what MoNA's
// collectives ride on a server's one endpoint), plus RDMA-style bulk
// transfers.
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
	From string // caller address
	Name string // RPC name
	// Payload lies in the received frame, which is recycled once the
	// response is sent and the Defer callbacks have run. A handler reads it
	// until then and copies whatever it keeps: an alias kept past that
	// point reads another frame's bytes.
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
// The list keeps its array for the next request: nothing adds to it once
// the handler has returned.
func (d *deferCtx) run() {
	d.mu.Lock()
	fns := d.fns
	d.mu.Unlock()
	for _, fn := range fns {
		fn()
	}
	clear(fns)
	d.mu.Lock()
	d.fns = fns[:0]
	d.mu.Unlock()
}

// Handler serves one RPC. The returned bytes become the response payload;
// a non-nil error is transported to the caller as a *RemoteError.
type Handler func(req Request) ([]byte, error)

// Dispatcher schedules the execution of an incoming request's handler. t
// is the request: t.Run performs the complete serve (handler + response
// send) and must be invoked exactly once, on whatever execution stream the
// dispatcher chooses (t.Go runs it on a goroutine of its own). A non-nil
// return sheds the request: t is NOT run, the dispatcher must not touch it
// again, and the error is sent to the caller directly from the progress
// loop — return *BusyError to make the shed retryable with a backoff hint.
// The zero dispatcher (none installed) runs every handler on its own
// goroutine; margo installs one to bind RPCs to bounded pools.
type Dispatcher func(name string, t *Task) error

// DefaultTimeout is used by Call when the caller passes 0.
const DefaultTimeout = 10 * time.Second

// bulkChunk is the largest piece moved per bulk-pull round trip,
// emulating pipelined RDMA gets.
const bulkChunk = 8 << 20

const (
	kindRequest  = 1
	kindResponse = 2
	// kindFrame is a one-way frame: no id, no response. The progress loop
	// hands it, past its kind byte, to the class's frame handler; like every
	// frame, one of fewer than 9 bytes is dropped.
	kindFrame = 3
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
	// arena is ep's shared-memory bulk arena, nil without one (SharesBulk).
	arena na.LocalBulk

	mu         sync.RWMutex
	handlers   map[string]handlerEntry
	dispatcher Dispatcher
	frames     FrameHandler
	closed     bool

	// pending maps a call id to the channel its response is delivered on.
	// The progress loop delivers under pmu and removes the entry as it does,
	// so a call that stops waiting learns, under pmu, whether a response is
	// already in its channel (settle).
	pmu     sync.Mutex
	pending map[uint64]chan response

	// idle hands a request to a handler goroutine waiting for its next one
	// (spawn); done closes when the class does, and the waiting goroutines
	// exit.
	idle chan *Task
	done chan struct{}

	bmu    sync.Mutex
	bulks  map[uint64]region
	nextID atomic.Uint64
	nextBk atomic.Uint64

	// chunk overrides bulkChunk when nonzero: tests shrink it to run the
	// multi-chunk concurrent pull on small regions.
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
		c.ep.SetObserver(r)
	}
}

func (c *Class) observer() *obs.Registry {
	if r := c.obsReg.Load(); r != nil {
		return r
	}
	return obs.Default()
}

// handlerEntry is a registered handler under its name: the progress loop
// finds it by the name's bytes in a request frame and hands the handler
// this copy of the name, so a known name costs no string per request.
type handlerEntry struct {
	name string
	h    Handler
}

// response is one delivered response: its status, its payload, and the
// frame both lie in, which goes back to the pool once nobody reads it.
type response struct {
	status  byte
	payload []byte
	frame   []byte
}

// respChans recycles the channels calls wait on; one goes back only empty
// (settle).
var respChans = sync.Pool{New: func() any { return make(chan response, 1) }}

// New creates a Class on ep and starts its progress loop.
func New(ep na.Endpoint) *Class {
	c := &Class{
		ep:       ep,
		handlers: make(map[string]handlerEntry),
		pending:  make(map[uint64]chan response),
		bulks:    make(map[uint64]region),
		idle:     make(chan *Task),
		done:     make(chan struct{}),
	}
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
	c.handlers[name] = handlerEntry{name: name, h: h}
	c.mu.Unlock()
}

// Deregister removes a handler; pending calls fail with ErrUnknownRPC.
func (c *Class) Deregister(name string) {
	c.mu.Lock()
	delete(c.handlers, name)
	c.mu.Unlock()
}

// SetDispatcher installs (or, with nil, removes) the execution-stream
// dispatcher for incoming requests.
func (c *Class) SetDispatcher(d Dispatcher) {
	c.mu.Lock()
	c.dispatcher = d
	c.mu.Unlock()
}

// FrameHandler takes the one-way frames a class receives (SendFrame): body
// is what the sender sent, lying in frame, the received buffer, which the
// handler owns and may hand back with Recycle once body is spent. It runs
// on the progress loop, one frame at a time in arrival order. Once the
// endpoint has closed it is called one last time, with nil slices and the
// endpoint's error.
type FrameHandler func(body, frame []byte, err error)

// SetFrameHandler installs (or, with nil, removes) the handler of one-way
// frames. Without one they are dropped.
func (c *Class) SetFrameHandler(h FrameHandler) {
	c.mu.Lock()
	c.frames = h
	c.mu.Unlock()
}

func (c *Class) frameHandler() FrameHandler {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.frames
}

// SendFrame sends head then body to the class at address to as one one-way
// frame, for its frame handler: it carries no RPC name and gets no
// response, so it costs the receiver no handler goroutine. The endpoint is
// done with both slices when it returns.
func (c *Class) SendFrame(to string, head, body []byte) error {
	return c.sendFrame(to, []byte{kindFrame}, head, body)
}

// Call invokes the named RPC at address to and waits for the response.
// timeout<=0 selects DefaultTimeout; it runs from the moment the request is
// sent. The response is the caller's: it may keep it as long as it likes,
// or, once done with it, hand it back with Recycle and not touch it again.
// A caller on a hot path does the latter: a response of up to smallResponse
// bytes lies at the start of the pooled frame it arrived in, and handing it
// back is what keeps the receive of the next response from allocating.
func (c *Class) Call(to, name string, payload []byte, timeout time.Duration) ([]byte, error) {
	return c.CallGather(to, name, payload, nil, timeout)
}

// CallGather is Call with the request payload handed over in two pieces,
// payload then tail, which the callee receives as one: the tail leaves as it
// lies (the body of a gathered send), and only the request header and
// payload are copied into the frame's head. A stage frame sends its eager
// region this way. Call is CallGather with no tail; the response is owned
// as Call's is.
func (c *Class) CallGather(to, name string, payload, tail []byte, timeout time.Duration) ([]byte, error) {
	resp, _, err := c.callGather(to, name, payload, tail, timeout)
	return resp, err
}

// callGather is CallGather that also returns the frame the response lies
// in: a caller that hands back the frame (Recycle) rather than the response
// recycles a large response as well, which does not lie at its frame's
// start.
func (c *Class) callGather(to, name string, payload, tail []byte, timeout time.Duration) (resp, frame []byte, err error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	reg := c.observer()
	m := c.callM.call(reg, name)
	m.count.Inc()
	m.bytesOut.Add(int64(len(payload) + len(tail)))
	start := reg.Now()
	defer func() { m.done(reg, start, resp, err) }()
	id, ch, err := c.send(to, name, payload, tail)
	if err != nil {
		return nil, nil, err
	}
	timer := getTimer(timeout)
	defer putTimer(timer)
	var r response
	select {
	case r = <-ch:
		respChans.Put(ch)
	case <-timer.C:
		var ok bool
		if r, ok = c.settle(id, ch); !ok {
			return nil, nil, fmt.Errorf("%w: %s at %s", ErrTimeout, name, to)
		}
	}
	if resp, err = r.result(name, to); err != nil {
		return nil, nil, err
	}
	return resp, r.frame, nil
}

// CallEach is Call to every address of to at once: it sends the request,
// name with payload, to each, and only then waits for the responses, under
// one timer and on no goroutine but the caller's. outs[i] and errs[i] are
// set to what Call would have returned for to[i]; both are the caller's and
// at least len(to) long, and each response in outs is owned as Call's is.
// The timeout runs from the last send.
func (c *Class) CallEach(to []string, name string, payload []byte, timeout time.Duration, outs [][]byte, errs []error) {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	reg := c.observer()
	m := c.callM.call(reg, name)
	start := reg.Now()
	// The pending calls, on the stack for the views a staging area has.
	type pendingCall struct {
		id uint64
		ch chan response
	}
	var small [16]pendingCall
	calls := small[:0]
	if len(to) > len(small) {
		calls = make([]pendingCall, 0, len(to))
	}
	for i, addr := range to {
		m.count.Inc()
		m.bytesOut.Add(int64(len(payload)))
		id, ch, err := c.send(addr, name, payload, nil)
		if err != nil {
			outs[i], errs[i] = nil, err
			m.done(reg, start, nil, err)
		}
		calls = append(calls, pendingCall{id, ch})
	}
	timer := getTimer(timeout)
	defer putTimer(timer)
	expired := false
	for i, pc := range calls {
		if pc.ch == nil {
			continue // never sent
		}
		var r response
		ok := false
		if !expired {
			select {
			case r = <-pc.ch:
				respChans.Put(pc.ch)
				ok = true
			case <-timer.C:
				expired = true
			}
		}
		if expired {
			r, ok = c.settle(pc.id, pc.ch)
		}
		if ok {
			outs[i], errs[i] = r.result(name, to[i])
		} else {
			outs[i], errs[i] = nil, fmt.Errorf("%w: %s at %s", ErrTimeout, name, to[i])
		}
		m.done(reg, start, outs[i], errs[i])
	}
}

// send registers a call to to and sends its request, payload then tail; ch
// is where its response arrives. A request that did not leave is settled
// here, and its error returned.
func (c *Class) send(to, name string, payload, tail []byte) (id uint64, ch chan response, err error) {
	id = c.nextID.Add(1)
	ch = respChans.Get().(chan response)
	c.pmu.Lock()
	c.pending[id] = ch
	c.pmu.Unlock()
	var hdr [64]byte
	if len(tail) == 0 {
		payload, tail = nil, payload // a plain message: the payload is the body
	}
	if sendErr := c.sendFrame(to, appendRequestHeader(hdr[:0], id, name), payload, tail); sendErr != nil {
		if r, ok := c.settle(id, ch); ok {
			Recycle(r.frame)
		}
		return 0, nil, fmt.Errorf("mercury: send to %s: %w", to, sendErr)
	}
	return id, ch, nil
}

// result turns a delivered response into what a call returns: the payload
// of an OK, otherwise the error its status carries, with the frame
// recycled.
func (r response) result(name, to string) ([]byte, error) {
	var err error
	switch r.status {
	case statusOK:
		return r.payload, nil
	case statusUnknownRPC:
		err = fmt.Errorf("%w: %s at %s", ErrUnknownRPC, name, to)
	case statusBusy:
		var ra time.Duration
		if len(r.payload) >= 8 {
			ra = time.Duration(binary.LittleEndian.Uint64(r.payload))
		}
		err = &BusyError{RetryAfter: ra}
	default:
		err = &RemoteError{Msg: string(r.payload)}
	}
	Recycle(r.frame)
	return nil, err
}

// settle ends a call that stopped waiting for its response (timed out, or
// its request never left) and returns ch to the pool. The call's pending
// entry goes; if the progress loop had already removed it, the response was
// delivered into ch under pmu before settle looked, so it is taken out —
// returned, ok — and ch goes back empty: a recycled channel never carries
// an earlier call's response into the next call that draws it.
func (c *Class) settle(id uint64, ch chan response) (r response, ok bool) {
	c.pmu.Lock()
	_, waiting := c.pending[id]
	delete(c.pending, id)
	c.pmu.Unlock()
	if !waiting {
		r, ok = <-ch, true
	}
	respChans.Put(ch)
	return r, ok
}

// smallResponse is the largest response payload the progress loop moves to
// the start of its frame, which is then the whole pooled buffer again and
// goes back to the pool when the caller hands the response back (Recycle):
// control responses, and an execute result carrying a rendered PNG. A
// larger one — a bulk-pull chunk, whose caller recycles the frame itself —
// is not worth the copy and stays where it lies; Recycle leaves it to the
// collector.
const smallResponse = 64 << 10

// progress is the endpoint receive loop: it dispatches requests to their
// handlers, completes pending calls with their responses and hands one-way
// frames to the frame handler. A request's frame is recycled once its serve
// is over; a frame that serves nothing — short, malformed, shed, a response
// nobody waits for, a one-way frame with no handler — at once. A response
// frame is its caller's, a one-way frame its handler's.
func (c *Class) progress() {
	defer c.wg.Done()
	for {
		from, data, err := c.ep.Recv()
		if err != nil {
			if h := c.frameHandler(); h != nil {
				h(nil, nil, err)
			}
			return
		}
		if len(data) < 9 {
			Recycle(data)
			continue
		}
		kind := data[0]
		id := binary.LittleEndian.Uint64(data[1:9])
		body := data[9:]
		switch kind {
		case kindRequest:
			nameBytes, payload, ok := splitRequest(body)
			if !ok {
				Recycle(data)
				continue
			}
			c.mu.RLock()
			e, known := c.handlers[string(nameBytes)]
			d := c.dispatcher
			c.mu.RUnlock()
			name := e.name
			if !known {
				name = string(nameBytes)
			}
			t := taskPool.Get().(*Task)
			*t = Task{c: c, from: from, name: name, id: id, payload: payload, frame: data, h: e.h}
			if d == nil {
				c.spawn(t)
				continue
			}
			if err := d(name, t); err != nil {
				// Shed at admission: no handler goroutine exists for this
				// request, so the refusal is sent inline from the progress
				// loop. The frame is tiny; with transport write deadlines
				// this cannot wedge the loop.
				*t = Task{}
				taskPool.Put(t)
				c.respondError(from, id, name, err)
				Recycle(data)
			}
		case kindResponse:
			if len(body) < 1 {
				Recycle(data)
				continue
			}
			r := response{status: body[0], payload: body[1:], frame: data}
			if len(r.payload) <= smallResponse {
				r.payload = data[:copy(data, r.payload)]
			}
			c.pmu.Lock()
			ch := c.pending[id]
			if ch != nil {
				// Delivered under pmu, and the entry removed with it: see
				// settle. ch is empty while pending, so this never blocks.
				delete(c.pending, id)
				ch <- r
			}
			c.pmu.Unlock()
			if ch == nil {
				Recycle(data)
			}
		case kindFrame:
			if h := c.frameHandler(); h != nil {
				h(data[1:], data, nil)
			} else {
				Recycle(data)
			}
		default:
			Recycle(data)
		}
	}
}

// Task is one received request on its way to its handler. The progress
// loop fills one per request from a pool and Run hands it back, so a
// dispatch allocates nothing.
type Task struct {
	c              *Class
	from, name     string
	id             uint64
	payload, frame []byte
	h              Handler
}

var taskPool = sync.Pool{New: func() any { return new(Task) }}

// Run serves the request: its handler, its response, its Defer callbacks,
// and the recycling of its frame. Call it exactly once; t is not to be
// touched afterwards.
func (t *Task) Run() {
	c, from, id, name, payload, frame, h := t.c, t.from, t.id, t.name, t.payload, t.frame, t.h
	*t = Task{}
	taskPool.Put(t)
	c.serve(from, id, name, payload, frame, h)
}

// Go runs t on a goroutine of its own, as the zero dispatcher runs every
// request. Like Run, it is called once.
func (t *Task) Go() { t.c.spawn(t) }

// runnerIdle is how long a handler goroutine waits for another request
// after serving one before it exits.
const runnerIdle = 20 * time.Millisecond

// spawn runs t on a goroutine of its own: one that served an earlier
// request and is waiting for the next if there is one, a new one
// otherwise. No request ever waits for another's handler, and a steady
// stream of requests reuses its goroutines instead of starting one (and
// allocating its closure) per request.
func (c *Class) spawn(t *Task) {
	select {
	case c.idle <- t:
	default:
		go c.runner(t)
	}
}

// runner serves t, then every request spawn hands it, until none comes for
// runnerIdle or the class closes.
func (c *Class) runner(t *Task) {
	idle := time.NewTimer(runnerIdle)
	defer idle.Stop()
	for {
		t.Run()
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(runnerIdle)
		select {
		case t = <-c.idle:
		case <-idle.C:
			return
		case <-c.done:
			return
		}
	}
}

// serve runs one request's handler and sends its response. payload lies in
// frame, which serve recycles once the handler, the response send and the
// Request.Defer callbacks have all returned: that is how long a handler may
// read req.Payload, and nothing may keep an alias of it past then.
func (c *Class) serve(from string, id uint64, name string, payload, frame []byte, h Handler) {
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
		res, err := h(Request{From: from, Name: name, Payload: payload, defers: dc})
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
	Recycle(frame)
}

// Recycle hands a spent frame back to the pool: a response a caller is
// done with (Call), or a request frame once its serve is over. The stream
// endpoints read frames into pooled buffers, whose capacity is a class
// size; anything else — the in-process endpoint's exact-size copies, a
// large response that still carries its header before it — is left to the
// collector.
func Recycle(frame []byte) {
	if c := cap(frame); c&(c-1) == 0 {
		bufpool.Put(frame)
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
	err := c.sendFrame(from, hdr[:], nil, out)
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
	close(c.done)
	return err
}

// sendFrame transmits one frame, hdr then payload then body, gathered: the
// body leaves as it is. hdr and payload are copied into one pooled head, so
// that the callers' stack buffers need not escape, and it is recycled at
// once, because endpoints are done with both slices when SendGather returns
// (inproc and a delayed fault copy, the sockets write synchronously).
func (c *Class) sendFrame(to string, hdr, payload, body []byte) error {
	head := bufpool.Get(len(hdr) + len(payload))
	copy(head[copy(head, hdr):], payload)
	err := c.ep.SendGather(to, head, body)
	bufpool.Put(head)
	return err
}

// appendRequestHeader appends everything of a request frame but its payload.
func appendRequestHeader(dst []byte, id uint64, name string) []byte {
	dst = append(dst, kindRequest)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(name)))
	return append(dst, name...)
}

// splitRequest splits a request body into its RPC name and payload, both
// aliasing body.
func splitRequest(body []byte) (name, payload []byte, ok bool) {
	if len(body) < 4 {
		return nil, nil, false
	}
	nl := int(binary.LittleEndian.Uint32(body))
	if len(body) < 4+nl {
		return nil, nil, false
	}
	return body[4 : 4+nl], body[4+nl:], true
}

// RPCNameOf extracts the RPC name from a raw request frame. It is the
// classifier transport-level fault plans use to target specific RPCs
// (na.FaultPlan.SetClassifier); ok is false for responses and frames that
// are not Mercury requests.
func RPCNameOf(frame []byte) (name string, ok bool) {
	if len(frame) < 9 || frame[0] != kindRequest {
		return "", false
	}
	b, _, ok := splitRequest(frame[9:])
	return string(b), ok
}

// timerPool recycles call-timeout timers: every RPC needs one, and a fresh
// time.NewTimer costs two allocations. Only a timer stopped before it
// fired goes back, so Reset on reuse is race-free (single-goroutine
// ownership between getTimer and putTimer).
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if v := timerPool.Get(); v != nil {
		t := v.(*time.Timer)
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// putTimer parks t for the next call unless it has fired. A fired timer is
// left to the collector: under the module's Go 1.22 timer semantics its
// value may still be on its way into t.C after Stop reports it expired, and
// a parked timer carrying it would end the next call's wait at once.
func putTimer(t *time.Timer) {
	if t.Stop() {
		timerPool.Put(t)
	}
}
