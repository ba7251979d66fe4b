package na

import (
	"sync/atomic"
	"time"

	"colza/internal/obs"
)

// DualEndpoint is one stream endpoint plus a shared-memory bulk arena. It
// listens on TCP and on a unix socket and advertises one composite
// "sm+tcp://host/base;host:port" address; the first frame to a peer dials
// its unix socket when the peer is colocated and alive, its TCP port
// otherwise, and the cached connection carries every later frame
// (tcpEP.dial counts the choice: na.route.sm_preferred /
// na.route.tcp_fallback). Framing, accept/read loops and the send path are
// the plain TCP endpoint's. What sharing a host buys beyond the socket is
// LocalBulk: exposed regions are published in the arena (arena.go) and
// colocated pullers copy them out of mapped memory.
type DualEndpoint struct {
	*tcpEP
	*shmBulk

	plan atomic.Pointer[FaultPlan]
}

// ListenDual creates a dual sm+tcp endpoint: hostport binds the TCP side
// (e.g. "127.0.0.1:0"); the unix socket and the arena are smDir/smName
// + ".sock" / ".blk" (an empty dir selects DefaultSMDir, an empty name
// generates a unique one).
func ListenDual(hostport, smDir, smName string) (*DualEndpoint, error) {
	return listenDual(hostport, smDir, smName, defaultArenaBytes, defaultArenaSlots)
}

func listenDual(hostport, smDir, smName string, arenaBytes, arenaSlots int) (*DualEndpoint, error) {
	base, err := smSegmentBase(smDir, smName)
	if err != nil {
		return nil, err
	}
	bulk, err := newShmBulk(base, arenaBytes, arenaSlots)
	if err != nil {
		return nil, err
	}
	ep, err := listenTCP(hostport)
	if err != nil {
		return nil, err
	}
	if err := ep.listenUnix(base); err != nil {
		ep.Close()
		return nil, err
	}
	return &DualEndpoint{tcpEP: ep, shmBulk: bulk}, nil
}

// SetObserver wires the receive-queue depth, the dial-time route counters
// and the arena counters into r.
func (e *DualEndpoint) SetObserver(r *obs.Registry) {
	if r == nil {
		return
	}
	e.q.setDepthGauge(r.Gauge("na.queue.depth", "transport", "sm+tcp"))
	e.route.Store(newRouteMetrics(r))
	e.met.Store(newArenaMetrics(r))
}

// SetRouteLog does nothing: there is no per-peer route decision left to
// log (the dial counts it). It stays because benchmark/deploy.go calls it;
// both go together (ROADMAP item 1).
func (e *DualEndpoint) SetRouteLog(func(format string, args ...any)) {}

// SetFaultPlan installs (or, with nil, removes) a fault plan consulted on
// every outgoing frame, whichever socket carries it — chaos suites drop and
// delay a dual endpoint's frames as they do on the in-process fabric.
func (e *DualEndpoint) SetFaultPlan(p *FaultPlan) { e.plan.Store(p) }

// Send delivers one frame; see SendGather.
func (e *DualEndpoint) Send(to string, data []byte) error { return e.SendGather(to, nil, data) }

// SendGather is the stream endpoint's, behind the fault plan.
func (e *DualEndpoint) SendGather(to string, head, body []byte) error {
	if plan := e.plan.Load(); plan != nil {
		// The plan's classifier reads the whole message, and a delayed one
		// needs a private copy anyway.
		msg := append(append(make([]byte, 0, len(head)+len(body)), head...), body...)
		v := plan.Decide(e.addr, to, msg)
		if v.Drop {
			return nil
		}
		if v.Delay > 0 {
			time.AfterFunc(v.Delay, func() { e.tcpEP.SendGather(to, nil, msg) })
			return nil
		}
	}
	return e.tcpEP.SendGather(to, head, body)
}

// Close shuts the listeners and connections down, releases every mapping
// and unlinks the socket and arena files — after a clean Close no segment
// files remain on disk.
func (e *DualEndpoint) Close() error {
	err := e.tcpEP.Close()
	e.shmBulk.close()
	return err
}
