// Package vstack implements the four communication stacks compared in the
// paper's Tables I and II — Cray-mpich (vendor MPI), OpenMPI, NA, and
// MoNA — as protocol state machines over a virtual-time network
// (internal/dessim + internal/netem). The goal is to reproduce the
// tables' *shape* from the same mechanisms the paper identifies, rather
// than hard-coding numbers:
//
//   - Vendor MPI rides the low-level interconnect API directly (uGNI on
//     Cori): minimal per-message software cost, eager at every size.
//   - OpenMPI is eager below 4 KiB; above it switches to a rendezvous
//     protocol whose handshake stalls in the progress loop — the paper's
//     observed collapse at 16 KiB+ (Table I) — and its collective tuning
//     degrades to a linear algorithm for large messages at scale, the
//     1800x blow-up of Table II.
//   - NA is a plain message layer paying a per-message allocation.
//   - MoNA caches and reuses request/message buffers (beating NA, Table I
//     discussion) and switches large messages to an RDMA pull instead of
//     rendezvous (beating OpenMPI at 16 KiB+).
//
// Every process is a dessim process; Send/Recv costs are spent in virtual
// time against a netem topology calibrated to the Cori Haswell partition.
package vstack

import (
	"fmt"
	"time"

	"colza/internal/collectives"
	"colza/internal/dessim"
	"colza/internal/netem"
)

// Profile describes one communication stack's cost model and protocol
// thresholds.
type Profile struct {
	Name string

	SendOverhead time.Duration // software cost per message at the sender
	RecvOverhead time.Duration // software cost per message at the receiver
	AllocCost    time.Duration // per-message allocation (0 when buffers are cached)
	CopyPicos    int64         // staging copy cost on the eager path, picoseconds per byte

	EagerLimit int // messages <= this go eager

	// Rendezvous path (used above EagerLimit when RDMAThreshold is 0):
	// RTS/CTS control messages plus a progress-loop stall.
	RendezvousStall time.Duration

	// RDMA path (used at sizes >= RDMAThreshold when > 0): the receiver
	// registers memory and pulls, with no intermediate copy.
	RDMAThreshold int
	RegCost       time.Duration

	// LargeAlgo, when set, replaces the collective algorithm for payloads
	// above EagerLimit (OpenMPI's degenerate tuning choice).
	Algo      collectives.Algorithm
	LargeAlgo *collectives.Algorithm
}

// The presets, calibrated so that 8-byte vendor-MPI latency lands near
// Table I's 1.16 us/op on the CoriHaswell topology.
var (
	flatAlgo = collectives.Algorithm{Kind: collectives.Flat}

	// VendorMPI models Cray-mpich over uGNI; its copy engine overlaps
	// staging copies with transmission, so the visible copy cost is small.
	VendorMPI = Profile{
		Name:         "cray-mpich",
		SendOverhead: 150 * time.Nanosecond,
		RecvOverhead: 100 * time.Nanosecond,
		CopyPicos:    netem.BandwidthGBps(300),
		EagerLimit:   1 << 30,
		Algo:         collectives.Algorithm{Kind: collectives.Binomial},
	}

	// OpenMPI models the stock OpenMPI build on the same wire.
	OpenMPI = Profile{
		Name:            "openmpi",
		SendOverhead:    300 * time.Nanosecond,
		RecvOverhead:    250 * time.Nanosecond,
		CopyPicos:       netem.BandwidthGBps(25),
		EagerLimit:      4 << 10,
		RendezvousStall: 45 * time.Microsecond,
		Algo:            collectives.Algorithm{Kind: collectives.Binomial},
		LargeAlgo:       &flatAlgo,
	}

	// NA is Mercury's raw message layer.
	NA = Profile{
		Name:         "na",
		SendOverhead: 400 * time.Nanosecond,
		RecvOverhead: 300 * time.Nanosecond,
		AllocCost:    180 * time.Nanosecond,
		CopyPicos:    netem.BandwidthGBps(25),
		EagerLimit:   1 << 30,
		Algo:         collectives.Algorithm{Kind: collectives.Binomial},
	}

	// MoNA adds buffer caching and an RDMA path on top of NA.
	MoNA = Profile{
		Name:          "mona",
		SendOverhead:  400 * time.Nanosecond,
		RecvOverhead:  300 * time.Nanosecond,
		AllocCost:     0, // cached buffers
		CopyPicos:     netem.BandwidthGBps(25),
		EagerLimit:    4 << 10,
		RDMAThreshold: 4 << 10,
		RegCost:       9 * time.Microsecond,
		Algo:          collectives.Algorithm{Kind: collectives.Binomial},
	}
)

// MoNANoCache is the ablation A4 variant: MoNA without its buffer cache.
func MoNANoCache() Profile {
	p := MoNA
	p.Name = "mona-nocache"
	p.AllocCost = 200 * time.Nanosecond
	return p
}

// WithEagerLimit returns a copy with a different protocol switch point
// (ablation A2).
func (p Profile) WithEagerLimit(n int) Profile {
	if p.RDMAThreshold > 0 {
		p.RDMAThreshold = n
	}
	p.EagerLimit = n
	p.Name = fmt.Sprintf("%s(eager=%d)", p.Name, n)
	return p
}

// message kinds on the virtual wire.
const (
	kindEager = iota
	kindRTS
	kindCTS
	kindData
	kindRDMADesc
)

type vmsg struct {
	kind int
	src  int
	tag  int
	size int
	data []byte
}

// wireHeader is the assumed protocol header size added to every frame.
const wireHeader = 64

// Fabric is one deployment of n virtual processes over a topology with a
// given stack profile.
type Fabric struct {
	sim     *dessim.Sim
	topo    *netem.Topology
	profile Profile
	boxes   []*dessim.Mailbox
}

// NewFabric builds an n-process fabric on the simulation.
func NewFabric(s *dessim.Sim, topo *netem.Topology, profile Profile, n int) *Fabric {
	f := &Fabric{sim: s, topo: topo, profile: profile}
	for i := 0; i < n; i++ {
		f.boxes = append(f.boxes, s.NewMailbox(fmt.Sprintf("rank%d", i)))
	}
	return f
}

// Size returns the number of ranks.
func (f *Fabric) Size() int { return len(f.boxes) }

// Rank binds a dessim process to rank r, yielding its endpoint.
func (f *Fabric) Rank(r int, p *dessim.Proc) *Endpoint {
	return &Endpoint{f: f, rank: r, p: p}
}

// Endpoint is one rank's view of the fabric. It implements
// collectives.PT2PT so the shared tree algorithms run unchanged on the
// virtual stacks.
type Endpoint struct {
	f       *Fabric
	rank    int
	p       *dessim.Proc
	pending []vmsg
}

var _ collectives.PT2PT = (*Endpoint)(nil)

// Rank returns the endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// Size returns the fabric size.
func (e *Endpoint) Size() int { return len(e.f.boxes) }

// deliver puts a message into dst's mailbox after the wire cost.
func (e *Endpoint) deliver(dst int, m vmsg, bytesOnWire int) {
	link := e.f.topo.Between(e.rank, dst)
	e.f.boxes[dst].Deliver(link.Cost(bytesOnWire), dessim.Message{Data: m})
}

// Send transmits data to dst under tag, spending the profile's sender
// costs in virtual time. The protocol (eager / rendezvous / RDMA) is
// chosen by size.
func (e *Endpoint) Send(dst, tag int, data []byte) error {
	pr := e.f.profile
	n := len(data)
	cp := append([]byte(nil), data...)
	switch {
	case pr.RDMAThreshold > 0 && n >= pr.RDMAThreshold:
		// Expose memory and send a descriptor; the receiver pulls.
		e.p.Sleep(pr.SendOverhead + pr.AllocCost)
		e.deliver(dst, vmsg{kind: kindRDMADesc, src: e.rank, tag: tag, size: n, data: cp}, wireHeader)
	case n > pr.EagerLimit:
		// Rendezvous: RTS, wait for CTS, stall, then the payload.
		e.p.Sleep(pr.SendOverhead + pr.AllocCost)
		e.deliver(dst, vmsg{kind: kindRTS, src: e.rank, tag: tag, size: n, data: cp}, wireHeader)
		e.waitFor(kindCTS, dst, tag)
		e.p.Sleep(pr.RendezvousStall)
		e.deliver(dst, vmsg{kind: kindData, src: e.rank, tag: tag, size: n, data: cp}, wireHeader+n)
	default:
		// Eager: copy into a transmit buffer and fire.
		e.p.Sleep(pr.SendOverhead + pr.AllocCost + copyCost(n, pr.CopyPicos))
		e.deliver(dst, vmsg{kind: kindEager, src: e.rank, tag: tag, size: n, data: cp}, wireHeader+n)
	}
	return nil
}

// waitFor blocks until a control/data message of the given kind arrives
// from src with tag, stashing everything else.
func (e *Endpoint) waitFor(kind, src, tag int) vmsg {
	for i, m := range e.pending {
		if m.kind == kind && m.src == src && m.tag == tag {
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			return m
		}
	}
	for {
		raw, ok := e.f.boxes[e.rank].Recv(e.p)
		if !ok {
			panic("vstack: mailbox closed")
		}
		m := raw.Data.(vmsg)
		if m.kind == kind && m.src == src && m.tag == tag {
			return m
		}
		e.pending = append(e.pending, m)
	}
}

// Recv blocks until a message from src with tag completes, running the
// receiver half of the protocol.
func (e *Endpoint) Recv(src, tag int) ([]byte, error) {
	pr := e.f.profile
	// Match an eager, RTS, or RDMA descriptor from (src, tag).
	var m vmsg
	found := false
	for i, pm := range e.pending {
		if pm.src == src && pm.tag == tag && (pm.kind == kindEager || pm.kind == kindRTS || pm.kind == kindRDMADesc) {
			m = pm
			e.pending = append(e.pending[:i], e.pending[i+1:]...)
			found = true
			break
		}
	}
	for !found {
		raw, ok := e.f.boxes[e.rank].Recv(e.p)
		if !ok {
			return nil, fmt.Errorf("vstack: mailbox closed")
		}
		pm := raw.Data.(vmsg)
		if pm.src == src && pm.tag == tag && (pm.kind == kindEager || pm.kind == kindRTS || pm.kind == kindRDMADesc) {
			m = pm
			found = true
			break
		}
		e.pending = append(e.pending, pm)
	}
	switch m.kind {
	case kindEager:
		e.p.Sleep(pr.RecvOverhead + copyCost(m.size, pr.CopyPicos))
		return m.data, nil
	case kindRDMADesc:
		// Register and pull: one request hop, data streams back, no copy.
		link := e.f.topo.Between(e.rank, m.src)
		e.p.Sleep(pr.RecvOverhead + pr.RegCost + link.Cost(wireHeader) + link.Cost(m.size))
		return m.data, nil
	default: // kindRTS
		e.p.Sleep(pr.RecvOverhead + pr.AllocCost)
		e.deliver(m.src, vmsg{kind: kindCTS, src: e.rank, tag: tag}, wireHeader)
		dm := e.waitFor(kindData, src, tag)
		e.p.Sleep(copyCost(dm.size, pr.CopyPicos))
		return dm.data, nil
	}
}

// copyCost converts a picosecond-per-byte rate into a duration for n
// bytes.
func copyCost(n int, picosPerByte int64) time.Duration {
	return time.Duration(int64(n)*picosPerByte/1000) * time.Nanosecond
}

// AlgoFor returns the collective algorithm the stack uses for a payload
// size (OpenMPI's degenerate large-message choice).
func (p Profile) AlgoFor(size int) collectives.Algorithm {
	if p.LargeAlgo != nil && size > p.EagerLimit {
		return *p.LargeAlgo
	}
	return p.Algo
}
