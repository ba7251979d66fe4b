package core

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"colza/internal/margo"
	"colza/internal/mona"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/ssg"
)

// Server bundles everything one Colza staging process runs: a Margo
// instance on its one endpoint, a MoNA instance whose collectives ride that
// endpoint, SSG membership, and the provider hosting pipelines. Obs is the
// server's own metrics registry — per-server, so multi-server tests and
// deployments see unaggregated numbers; merge snapshots for fleet-wide
// views.
type Server struct {
	MI       *margo.Instance
	Mona     *mona.Instance
	Group    *ssg.Group
	Provider *Provider
	Obs      *obs.Registry
}

// Pool names a server defines on its margo instance (see
// Provider.BindPools): the control pool runs the 2PC, membership and admin
// RPCs, the data pool stage and execute.
const (
	ControlPoolName = "control"
	DataPoolName    = "data"
)

// controlPool is the control-plane pool sizing: RPCs here are cheap (JSON
// decode + state mutation), so few workers suffice, but the queue absorbs
// a full 2PC round from many concurrent pipelines.
func controlPool() margo.PoolConfig {
	return margo.PoolConfig{Workers: 8, Queue: 64, BusyHint: time.Millisecond}
}

// dataPool sizes the stage/execute pool to the machine: one worker per
// processor (at least 4), with a 4x queue so short bursts ride through
// without shedding.
func dataPool() margo.PoolConfig {
	w := runtime.GOMAXPROCS(0)
	if w < 4 {
		w = 4
	}
	return margo.PoolConfig{Workers: w, Queue: 4 * w, BusyHint: 2 * time.Millisecond}
}

// ServerConfig tunes a staging server.
type ServerConfig struct {
	// GroupName is the SSG group name (default "colza").
	GroupName string
	// Bootstrap is the RPC address of any existing member; empty creates
	// a new group (the first daemon of a deployment).
	Bootstrap string
	// SSG tunes the gossip protocol.
	SSG ssg.Config
	// StateReplicas is how many ring successors receive each stateful
	// pipeline's checkpoint after a deactivate (the durability layer,
	// DESIGN.md §9). 0 selects the default of 1; a negative value disables
	// checkpointing entirely.
	StateReplicas int
}

// StartServer assembles a staging server on rpcEP, its one endpoint: it
// carries the Margo RPCs and bulk pulls, and the pipelines' MoNA
// collectives as one-way frames (mona.Attach). A non-nil monaEP is closed
// at once: the parameter remains only because benchmark/deploy.go still
// passes a second endpoint, and ROADMAP item 1 drops the argument there and
// the parameter here. Callers in this module pass nil.
func StartServer(rpcEP, monaEP na.Endpoint, cfg ServerConfig) (*Server, error) {
	if monaEP != nil {
		monaEP.Close()
	}
	if cfg.GroupName == "" {
		cfg.GroupName = "colza"
	}
	mi := margo.NewInstance(rpcEP)
	mn := mona.Attach(mi.Class())
	var group *ssg.Group
	var err error
	if cfg.Bootstrap == "" {
		group, err = ssg.Create(mi, cfg.GroupName, cfg.SSG)
	} else {
		group, err = ssg.Join(mi, cfg.GroupName, cfg.Bootstrap, cfg.SSG)
	}
	if err != nil {
		mi.Finalize()
		mn.Finalize()
		return nil, fmt.Errorf("colza: starting server: %w", err)
	}
	s := &Server{MI: mi, Mona: mn, Group: group, Provider: NewProvider(mi, mn, group), Obs: obs.NewRegistry()}
	s.Provider.SetObserver(s.Obs)
	switch {
	case cfg.StateReplicas < 0:
		s.Provider.SetStateReplicas(0)
	case cfg.StateReplicas == 0:
		s.Provider.SetStateReplicas(1)
	default:
		s.Provider.SetStateReplicas(cfg.StateReplicas)
	}
	s.Provider.BindPools(mi.DefinePool(ControlPoolName, controlPool()), mi.DefinePool(DataPoolName, dataPool()))
	mi.OnFinalize(func() { mn.Finalize() })
	return s, nil
}

// StartInprocServer creates the endpoint on an in-process network under the
// given name and starts a server — the deployment path used by tests,
// benchmarks, and examples. A joiner's membership spreads by gossip: use
// WaitMembers to wait until every view has it.
func StartInprocServer(net *na.InprocNetwork, name string, cfg ServerConfig) (*Server, error) {
	ep, err := net.Listen(name)
	if err != nil {
		return nil, err
	}
	return StartServer(ep, nil, cfg)
}

// WaitMembers waits until every server in servers that is not leaving sees
// exactly n members. It polls every millisecond, so a caller that times the
// wait (join propagation, say) reads it at that resolution. After timeout
// it returns an error naming each server's view size.
func WaitMembers(servers []*Server, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		live, ok := 0, true
		for _, s := range servers {
			if s.Provider.Leaving() {
				continue
			}
			live++
			if len(s.Group.Members()) != n {
				ok = false
				break
			}
		}
		if ok && live > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sizes := make([]string, len(servers))
	for i, s := range servers {
		sizes[i] = fmt.Sprintf("%s sees %d", s.Addr(), len(s.Group.Members()))
		if s.Provider.Leaving() {
			sizes[i] += " (leaving)"
		}
	}
	return fmt.Errorf("colza: views did not reach %d members in %v: %s", n, timeout, strings.Join(sizes, ", "))
}

// Addr returns the server's RPC address (the one clients and joiners use).
func (s *Server) Addr() string { return s.MI.Addr() }

// Shutdown stops the server abruptly (no leave announcement) — the crash
// path. Use the admin leave RPC for graceful departure. Once the endpoint
// is closed the pipelines' backends are destroyed, so what they hold (the
// iso pipeline's mesh and framebuffer, say) is released even while the
// caller keeps the Server value.
func (s *Server) Shutdown() {
	s.Group.Shutdown()
	s.MI.Finalize()
	s.Provider.destroyBackends()
}
