package na

import (
	"fmt"
	"strings"
	"sync"

	"colza/internal/bufpool"
	"colza/internal/obs"
)

// InprocNetwork hosts any number of in-process endpoints. It is how the
// repository deploys "multi-node" Colza runs inside one OS process: every
// simulated process (simulation rank, Colza server, admin tool) listens on
// its own address. The network supports fault injection — crashes, and a
// FaultPlan's refusals, drops and delays, which also cut links — used by the
// failure-handling tests and the fault-tolerance extension experiments.
type InprocNetwork struct {
	mu       sync.Mutex
	eps      map[string]*inprocEP
	everSeen map[string]bool
	plan     *FaultPlan
}

// NewInprocNetwork creates an empty in-process network.
func NewInprocNetwork() *InprocNetwork {
	return &InprocNetwork{
		eps:      make(map[string]*inprocEP),
		everSeen: make(map[string]bool),
	}
}

// Listen creates an endpoint named name; its address is "inproc://name".
func (n *InprocNetwork) Listen(name string) (Endpoint, error) {
	if name == "" || strings.ContainsAny(name, " \n") {
		return nil, fmt.Errorf("na: invalid endpoint name %q", name)
	}
	addr := "inproc://" + name
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[addr]; ok {
		return nil, fmt.Errorf("na: address %s already in use", addr)
	}
	ep := &inprocEP{net: n, addr: addr, q: newPktQueue()}
	n.eps[addr] = ep
	n.everSeen[addr] = true
	return ep, nil
}

// SetFaultPlan installs (or, with nil, removes) a scriptable fault plan
// consulted on every delivery. A link is cut by a {From, To, Drop: true}
// rule per direction and healed by removing the plan. A delayed packet is
// delivered asynchronously: with one fixed delay per link, per-link order
// holds; under differing delays it does not.
func (n *InprocNetwork) SetFaultPlan(p *FaultPlan) {
	n.mu.Lock()
	n.plan = p
	n.mu.Unlock()
}

// Crash abruptly closes the endpoint with the given address, simulating a
// process crash: its pending queue is dropped, subsequent sends to it are
// silently lost (the address stays known), and sends from it fail with
// ErrClosed. A later Listen with the same name restarts the endpoint.
func (n *InprocNetwork) Crash(addr string) error {
	if !strings.HasPrefix(addr, "inproc://") {
		addr = "inproc://" + addr
	}
	n.mu.Lock()
	ep, ok := n.eps[addr]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoRoute, addr)
	}
	return ep.Close()
}

// Endpoints returns the addresses currently listening, in no particular
// order.
func (n *InprocNetwork) Endpoints() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.eps))
	for a := range n.eps {
		out = append(out, a)
	}
	return out
}

type inprocEP struct {
	net    *InprocNetwork
	addr   string
	q      *pktQueue
	closed sync.Once
}

func (e *inprocEP) Addr() string { return e.addr }

// SetObserver routes the endpoint's receive-queue depth into r.
func (e *inprocEP) SetObserver(r *obs.Registry) {
	if r == nil {
		return
	}
	e.q.setDepthGauge(r.Gauge("na.queue.depth", "transport", "inproc"))
}

func (e *inprocEP) Send(to string, data []byte) error { return e.SendGather(to, nil, data) }

// SendGather makes the message's one private copy, head then body, in a
// buffer from bufpool, and hands it to the fault plan and the receiver's
// queue: the receiver owns it, as a stream endpoint's receiver owns the
// frame it read, and mercury puts it back once it is spent.
func (e *inprocEP) SendGather(to string, head, body []byte) error {
	n := e.net
	n.mu.Lock()
	if n.eps[e.addr] != e {
		// This endpoint was closed or crashed: a dead process cannot send.
		n.mu.Unlock()
		return ErrClosed
	}
	dst, ok := n.eps[to]
	if !ok {
		seen := n.everSeen[to]
		n.mu.Unlock()
		if seen {
			return nil // crashed/closed peer: datagram silently lost
		}
		return fmt.Errorf("%w: %s", ErrNoRoute, to)
	}
	plan := n.plan
	n.mu.Unlock()

	data := join(head, body)
	if plan != nil {
		return plan.send(e.addr, to, data, func(msg []byte) error {
			dst.q.push(packet{from: e.addr, data: msg})
			return nil
		})
	}
	dst.q.push(packet{from: e.addr, data: data})
	return nil
}

// join returns head then body in one buffer from bufpool.
func join(head, body []byte) []byte {
	data := bufpool.Get(len(head) + len(body))
	copy(data[copy(data, head):], body)
	return data
}

func (e *inprocEP) Recv() (string, []byte, error) {
	p, err := e.q.pop()
	if err != nil {
		return "", nil, err
	}
	return p.from, p.data, nil
}

func (e *inprocEP) Close() error {
	e.closed.Do(func() {
		e.net.mu.Lock()
		// Only deregister ourselves: after a crash-and-restart the name may
		// already be bound to a fresh endpoint we must not tear down.
		if e.net.eps[e.addr] == e {
			delete(e.net.eps, e.addr)
		}
		e.net.mu.Unlock()
		e.q.close()
	})
	return nil
}
