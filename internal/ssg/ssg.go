// Package ssg implements scalable service groups: eventually-consistent
// group membership built on the SWIM protocol, modeled on Mochi's SSG
// component that Colza uses to track staging servers as they join and
// leave.
//
// Mechanics follow SWIM (Das, Gupta, Motivala, DSN'02):
//
//   - Periodically each member pings one random peer. An unanswered ping
//     triggers indirect probes (ping-req) through k other members before
//     the target is suspected.
//   - Membership updates (alive / suspect / dead / left) piggyback on ping
//     traffic and are re-gossiped a logarithmic number of times.
//   - Suspicion with incarnation numbers lets a falsely-accused member
//     refute by re-announcing itself with a higher incarnation.
//
// A new process joins by contacting any existing member (the paper's
// "connection file" bootstrap): the contacted member returns its full view
// and disseminates the join. Leaves are announced gracefully; crashes are
// detected by the failure detector. Views are eventually consistent —
// which is exactly why Colza layers a two-phase commit on top before each
// activate (internal/core).
package ssg

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"colza/internal/margo"
	"colza/internal/mercury"
)

// State is a member's lifecycle state.
type State int

// Member lifecycle states.
const (
	Alive State = iota
	Suspect
	Dead
	Left
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Left:
		return "left"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config tunes the SWIM protocol. Zero values select defaults suitable
// for in-process tests (fast gossip).
type Config struct {
	// GossipPeriod is the probe interval (default 25ms). The paper notes
	// the membership-change overhead "depends on SSG's configuration
	// parameters such as how frequently information is exchanged" —
	// ablation A5 sweeps this.
	GossipPeriod time.Duration
	// PingTimeout bounds a direct or indirect probe (default
	// GossipPeriod/2).
	PingTimeout time.Duration
	// SuspectPeriods is how many gossip periods a suspect has to refute
	// before being declared dead (default 4).
	SuspectPeriods int
	// Seed makes peer selection deterministic when nonzero.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.GossipPeriod <= 0 {
		c.GossipPeriod = 25 * time.Millisecond
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = c.GossipPeriod / 2
	}
	if c.SuspectPeriods <= 0 {
		c.SuspectPeriods = 4
	}
	return c
}

// update is a piggybacked membership assertion.
type update struct {
	Addr string
	St   State
	Inc  uint64
}

type memberInfo struct {
	addr         string // the member table's key, shared by what decodes it
	state        State
	inc          uint64
	suspectSince time.Time
}

type queuedUpdate struct {
	u    update
	left int // remaining transmissions
}

// ErrNotMember is returned by Join when the bootstrap node refuses.
var ErrNotMember = errors.New("ssg: bootstrap node is not a member of this group")

// Group is this process's view of one service group.
type Group struct {
	mi   *margo.Instance
	name string
	cfg  Config
	rng  *rand.Rand

	mu      sync.Mutex
	members map[string]*memberInfo // includes self
	inc     uint64                 // self incarnation
	queue   []queuedUpdate
	stopped bool
	// sorted is the Snapshot of members alive or suspected, nil once a
	// member entered or left that set since it was taken.
	sorted []string

	// The RPC names, composed once, and gossipRound's scratch: its probe
	// candidates, the updates it piggybacks and its encoded ping. Only the
	// gossip task runs gossipRound.
	rpcJoin, rpcPing, rpcPingReq string
	peers                        []string
	ups                          []update
	wire                         []byte

	stopGossip func()
}

const providerPrefix = "ssg/"

// Create bootstraps a new group containing only this process.
func Create(mi *margo.Instance, name string, cfg Config) (*Group, error) {
	g := newGroup(mi, name, cfg)
	g.addLocked(g.self(), Alive, 1)
	g.inc = 1
	g.start()
	return g, nil
}

// Join contacts bootstrap (any existing member), obtains its view, and
// starts participating. This is how a freshly launched Colza daemon enters
// the staging area.
func Join(mi *margo.Instance, name, bootstrap string, cfg Config) (*Group, error) {
	g := newGroup(mi, name, cfg)
	g.inc = uint64(time.Now().UnixNano()) // fresh incarnation dominates any stale state
	body := appendPing(nil, pingMsg{From: g.self(), Inc: g.inc})
	raw, err := mi.Class().Call(bootstrap, g.rpcJoin, body, 5*g.cfg.GossipPeriod+g.cfg.PingTimeout+2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("ssg: join via %s: %w", bootstrap, err)
	}
	g.mu.Lock()
	view, err := g.decodeJoinReplyLocked(raw)
	mercury.Recycle(raw)
	if err != nil {
		g.mu.Unlock()
		return nil, fmt.Errorf("ssg: join reply: %w", err)
	}
	g.addLocked(g.self(), Alive, g.inc)
	for _, u := range view {
		if u.Addr == g.self() {
			continue
		}
		if u.St == Alive || u.St == Suspect {
			g.addLocked(u.Addr, Alive, u.Inc)
		}
	}
	g.enqueueLocked(update{Addr: g.self(), St: Alive, Inc: g.inc})
	g.mu.Unlock()
	g.start()
	return g, nil
}

func newGroup(mi *margo.Instance, name string, cfg Config) *Group {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	p := providerPrefix + name
	return &Group{
		mi:         mi,
		name:       name,
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(seed)),
		members:    make(map[string]*memberInfo),
		rpcJoin:    margo.ProviderRPCName(p, "join"),
		rpcPing:    margo.ProviderRPCName(p, "ping"),
		rpcPingReq: margo.ProviderRPCName(p, "pingreq"),
	}
}

// addLocked enters a member in the table. The caller holds g.mu.
func (g *Group) addLocked(addr string, st State, inc uint64) {
	g.members[addr] = &memberInfo{addr: addr, state: st, inc: inc}
	g.sorted = nil
}

func (g *Group) self() string { return g.mi.Addr() }

// Name returns the group name.
func (g *Group) Name() string { return g.name }

func (g *Group) start() {
	p := providerPrefix + g.name
	g.mi.RegisterProviderRPC(p, "join", g.handleJoin)
	g.mi.RegisterProviderRPC(p, "ping", g.handlePing)
	g.mi.RegisterProviderRPC(p, "pingreq", g.handlePingReq)
	g.stopGossip = g.mi.Periodic(g.cfg.GossipPeriod, g.gossipRound)
}

// Members returns the sorted addresses of members currently believed
// alive or suspected (a suspect is still in the group until declared
// dead), including self.
func (g *Group) Members() []string { return slices.Clone(g.Snapshot()) }

// Snapshot is Members without the copy: the list is shared by every caller
// until the membership changes, so it must not be modified. A server
// checks each proposed view against it.
func (g *Group) Snapshot() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.sorted == nil {
		out := make([]string, 0, len(g.members))
		for a, m := range g.members {
			if m.state == Alive || m.state == Suspect {
				out = append(out, a)
			}
		}
		sort.Strings(out)
		g.sorted = out
	}
	return g.sorted
}

// Leave announces departure and stops participating — the graceful path
// used when a Colza server is asked to shut down.
func (g *Group) Leave() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	g.inc++
	leaveUpd := []update{{Addr: g.self(), St: Left, Inc: g.inc}}
	var peers []string
	for a, m := range g.members {
		if a != g.self() && m.state == Alive {
			peers = append(peers, a)
		}
	}
	g.mu.Unlock()
	if g.stopGossip != nil {
		g.stopGossip()
	}
	// Push the departure directly to a handful of peers; gossip spreads it.
	sort.Strings(peers)
	fan := len(peers)
	if fan > 4 {
		fan = 4
	}
	body := appendPing(nil, pingMsg{From: g.self(), Updates: leaveUpd})
	for i := 0; i < fan; i++ {
		go g.mi.Class().Call(peers[i], g.rpcPing, body, g.cfg.PingTimeout)
	}
}

// Shutdown stops participating without announcing anything, simulating a
// crash; peers must detect it through the failure detector.
func (g *Group) Shutdown() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	g.mu.Unlock()
	if g.stopGossip != nil {
		g.stopGossip()
	}
	for _, name := range []string{g.rpcJoin, g.rpcPing, g.rpcPingReq} {
		g.mi.Class().Deregister(name)
	}
}

// SWIM's dissemination constants: the ping-req fan-out k, and the factor
// that scales a fresh update's re-gossip budget,
// retransmitMult*ceil(log2(n+1)).
const (
	indirectProbes = 3
	retransmitMult = 4
)

// retransmitBudget computes how many times a fresh update is re-gossiped.
func (g *Group) retransmitBudget() int {
	n := len(g.members)
	log2 := 0
	for v := 1; v < n+1; v <<= 1 {
		log2++
	}
	b := retransmitMult * log2
	if b < 3 {
		b = 3
	}
	return b
}

func (g *Group) enqueueLocked(u update) {
	// Replace any queued update about the same member if this one wins.
	for i := range g.queue {
		if g.queue[i].u.Addr == u.Addr {
			if supersedes(u, g.queue[i].u) {
				g.queue[i] = queuedUpdate{u: u, left: g.retransmitBudget()}
			}
			return
		}
	}
	g.queue = append(g.queue, queuedUpdate{u: u, left: g.retransmitBudget()})
}

// supersedes reports whether a should replace b in the gossip queue.
func supersedes(a, b update) bool {
	if a.Inc != b.Inc {
		return a.Inc > b.Inc
	}
	return a.St > b.St // dead/left > suspect > alive at equal incarnation
}

// takeUpdatesLocked pops up to max piggyback updates, appended to out,
// decrementing budgets.
func (g *Group) takeUpdatesLocked(max int, out []update) []update {
	w := 0
	for _, qu := range g.queue {
		if len(out) < max {
			out = append(out, qu.u)
			qu.left--
		}
		if qu.left > 0 {
			g.queue[w] = qu
			w++
		}
	}
	g.queue = g.queue[:w]
	return out
}

const piggybackMax = 16

// gossipRound is the periodic SWIM probe.
func (g *Group) gossipRound() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	// Expire suspects.
	now := time.Now()
	deadline := time.Duration(g.cfg.SuspectPeriods) * g.cfg.GossipPeriod
	for a, m := range g.members {
		if m.state == Suspect && now.Sub(m.suspectSince) > deadline {
			m.state = Dead
			g.sorted = nil
			g.enqueueLocked(update{Addr: a, St: Dead, Inc: m.inc})
		}
	}
	// Choose a probe target among alive peers.
	self := g.self()
	peers := g.peers[:0]
	for a, m := range g.members {
		if a != self && (m.state == Alive || m.state == Suspect) {
			peers = append(peers, a)
		}
	}
	sort.Strings(peers)
	g.peers = peers
	var target string
	if len(peers) > 0 {
		target = peers[g.rng.Intn(len(peers))]
	}
	g.ups = g.takeUpdatesLocked(piggybackMax, g.ups[:0])
	g.mu.Unlock()

	if target == "" {
		return
	}
	g.wire = appendPing(g.wire[:0], pingMsg{From: self, Updates: g.ups})
	clear(g.ups) // so the scratch keeps no address alive past the round
	raw, err := g.mi.Class().Call(target, g.rpcPing, g.wire, g.cfg.PingTimeout)
	if err == nil {
		ack := g.applyReply(raw)
		mercury.Recycle(raw)
		if ack {
			return
		}
	}
	// Indirect probes.
	if g.indirectProbe(target, peers) {
		return
	}
	g.suspect(target)
}

// applyReply decodes a ping reply and, if it acknowledges, applies its
// updates; it reports the acknowledgement.
func (g *Group) applyReply(raw []byte) bool {
	var scratch [piggybackMax]update
	g.mu.Lock()
	defer g.mu.Unlock()
	ack, ups, err := g.decodeReplyLocked(raw, scratch[:0])
	if err != nil || !ack {
		return false
	}
	g.applyLocked(ups)
	return true
}

// indirectProbe asks up to k other members to ping target; reports whether
// any of them acknowledged.
func (g *Group) indirectProbe(target string, peers []string) bool {
	var helpers []string
	for _, a := range peers {
		if a != target {
			helpers = append(helpers, a)
		}
	}
	g.mu.Lock()
	g.rng.Shuffle(len(helpers), func(i, j int) { helpers[i], helpers[j] = helpers[j], helpers[i] })
	g.mu.Unlock()
	if len(helpers) > indirectProbes {
		helpers = helpers[:indirectProbes]
	}
	if len(helpers) == 0 {
		return false
	}
	body := appendPing(nil, pingMsg{From: g.self(), Target: target})
	acks := make(chan bool, len(helpers))
	for _, h := range helpers {
		go func(h string) {
			raw, err := g.mi.Class().Call(h, g.rpcPingReq, body, 2*g.cfg.PingTimeout)
			acks <- err == nil && g.applyReply(raw)
		}(h)
	}
	ok := false
	for range helpers {
		if <-acks {
			ok = true
		}
	}
	return ok
}

func (g *Group) suspect(addr string) {
	g.mu.Lock()
	m, ok := g.members[addr]
	if !ok || m.state != Alive {
		g.mu.Unlock()
		return
	}
	m.state = Suspect
	m.suspectSince = time.Now()
	g.enqueueLocked(update{Addr: addr, St: Suspect, Inc: m.inc})
	g.mu.Unlock()
}

// applyUpdates merges piggybacked assertions using SWIM's incarnation
// rules.
func (g *Group) applyUpdates(ups []update) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.applyLocked(ups)
}

// applyLocked is applyUpdates with g.mu held.
func (g *Group) applyLocked(ups []update) {
	for _, u := range ups {
		if u.Addr == g.self() {
			// Refute suspicion or death rumors about self.
			if (u.St == Suspect || u.St == Dead) && u.Inc >= g.inc {
				g.inc = u.Inc + 1
				if self, ok := g.members[g.self()]; ok {
					self.inc = g.inc
					self.state = Alive
				}
				g.enqueueLocked(update{Addr: g.self(), St: Alive, Inc: g.inc})
			}
			continue
		}
		m, known := g.members[u.Addr]
		switch u.St {
		case Alive:
			if !known {
				g.addLocked(u.Addr, Alive, u.Inc)
				g.enqueueLocked(u)
			} else if u.Inc > m.inc {
				m.inc = u.Inc
				m.state = Alive
				g.sorted = nil
				g.enqueueLocked(u)
			}
		case Suspect:
			if known && m.state == Alive && u.Inc >= m.inc {
				m.state = Suspect
				m.suspectSince = time.Now()
				m.inc = u.Inc
				g.enqueueLocked(u)
			}
		case Dead, Left:
			if known && (m.state == Alive || m.state == Suspect) && u.Inc >= m.inc {
				m.state = u.St
				m.inc = u.Inc
				g.sorted = nil
				g.enqueueLocked(u)
			}
		}
	}
}

// handleJoin serves a join request: adopt the joiner, reply with the view.
func (g *Group) handleJoin(req mercury.Request) ([]byte, error) {
	g.mu.Lock()
	msg, err := g.decodePingLocked(req.Payload, nil)
	if err != nil {
		g.mu.Unlock()
		return nil, err
	}
	if g.stopped {
		g.mu.Unlock()
		return nil, ErrNotMember
	}
	view := make([]update, 0, len(g.members))
	for a, m := range g.members {
		view = append(view, update{Addr: a, St: m.state, Inc: m.inc})
	}
	g.mu.Unlock()
	inc := msg.Inc
	if inc == 0 {
		inc = uint64(time.Now().UnixNano())
	}
	g.applyUpdates([]update{{Addr: msg.From, St: Alive, Inc: inc}})
	return appendJoinReply(nil, view), nil
}

// handlePing acknowledges and exchanges piggybacked updates.
func (g *Group) handlePing(req mercury.Request) ([]byte, error) {
	var scratch [piggybackMax]update
	g.mu.Lock()
	defer g.mu.Unlock()
	msg, err := g.decodePingLocked(req.Payload, scratch[:0])
	if err != nil {
		return nil, err
	}
	g.applyLocked(msg.Updates)
	ups := g.takeUpdatesLocked(piggybackMax, scratch[:0])
	if g.stopped {
		return nil, ErrNotMember
	}
	if len(ups) == 0 {
		return replyAck, nil
	}
	return appendReply(nil, true, ups), nil
}

// handlePingReq probes a target on behalf of the requester.
func (g *Group) handlePingReq(req mercury.Request) ([]byte, error) {
	g.mu.Lock()
	msg, err := g.decodePingLocked(req.Payload, nil)
	g.mu.Unlock()
	if err != nil {
		return nil, err
	}
	body := appendPing(nil, pingMsg{From: g.self()})
	raw, err := g.mi.Class().Call(msg.Target, g.rpcPing, body, g.cfg.PingTimeout)
	if err != nil || !g.applyReply(raw) {
		return replyNack, nil
	}
	return replyAck, nil
}
