package core

import (
	"fmt"
	"runtime"
	"time"

	"colza/internal/margo"
	"colza/internal/mona"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/ssg"
)

// Server bundles everything one Colza staging process runs: a Margo
// instance (RPC endpoint), a MoNA instance (collectives endpoint), SSG
// membership, and the provider hosting pipelines. Obs is the server's own
// metrics registry — per-server, so multi-server tests and deployments see
// unaggregated numbers; merge snapshots for fleet-wide views.
type Server struct {
	MI       *margo.Instance
	Mona     *mona.Instance
	Group    *ssg.Group
	Provider *Provider
	Obs      *obs.Registry
}

// PoolsConfig sizes the server's two execution streams (see
// Provider.BindPools). Zero-valued fields take the defaults below.
type PoolsConfig struct {
	// Control runs the 2PC, membership, and admin RPCs: small and
	// latency-oriented.
	Control margo.PoolConfig
	// Data runs stage and execute: sized for throughput.
	Data margo.PoolConfig
}

// Pool names a server defines on its margo instance.
const (
	ControlPoolName = "control"
	DataPoolName    = "data"
)

// DefaultControlPool is the control-plane pool sizing: RPCs here are
// cheap (JSON decode + state mutation), so few workers suffice, but the
// queue absorbs a full 2PC round from many concurrent pipelines.
func DefaultControlPool() margo.PoolConfig {
	return margo.PoolConfig{Workers: 8, Queue: 64, BusyHint: time.Millisecond}
}

// DefaultDataPool sizes the stage/execute pool to the machine: one worker
// per processor (at least 4), with a 4x queue so short bursts ride through
// without shedding.
func DefaultDataPool() margo.PoolConfig {
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
	// Pools bounds the server's execution streams.
	Pools PoolsConfig
	// StateReplicas is how many ring successors receive each stateful
	// pipeline's checkpoint after a deactivate (the durability layer,
	// DESIGN.md §9). 0 selects the default of 1; a negative value disables
	// checkpointing entirely.
	StateReplicas int
}

// StartServer assembles a staging server from its two endpoints. rpcEP
// carries Margo control traffic (RPCs, bulk pulls); monaEP carries
// pipeline collectives — the same split the Colza paper uses between Margo
// and MoNA.
func StartServer(rpcEP, monaEP na.Endpoint, cfg ServerConfig) (*Server, error) {
	if cfg.GroupName == "" {
		cfg.GroupName = "colza"
	}
	mi := margo.NewInstance(rpcEP)
	mn := mona.NewInstance(monaEP)
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
	pc := cfg.Pools.Control
	if pc == (margo.PoolConfig{}) {
		pc = DefaultControlPool()
	}
	pd := cfg.Pools.Data
	if pd == (margo.PoolConfig{}) {
		pd = DefaultDataPool()
	}
	s.Provider.BindPools(mi.DefinePool(ControlPoolName, pc), mi.DefinePool(DataPoolName, pd))
	mi.OnFinalize(func() { mn.Finalize() })
	return s, nil
}

// StartInprocServer creates both endpoints on an in-process network under
// the given name and starts a server — the deployment path used by tests,
// benchmarks, and examples.
func StartInprocServer(net *na.InprocNetwork, name string, cfg ServerConfig) (*Server, error) {
	rpcEP, err := net.Listen(name)
	if err != nil {
		return nil, err
	}
	monaEP, err := net.Listen(name + ":mona")
	if err != nil {
		rpcEP.Close()
		return nil, err
	}
	return StartServer(rpcEP, monaEP, cfg)
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
