package bench

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/ssg"
)

var clusterSeq atomic.Int64

// Cluster is an in-process Colza deployment used by the pipeline and
// elasticity experiments: N staging servers on one network, a client, and
// an admin handle.
type Cluster struct {
	Net     *na.InprocNetwork
	Servers []*core.Server
	MI      *margo.Instance
	Client  *core.Client
	Admin   *core.AdminClient
	// Obs is the client-side registry: activate/stage/execute/deactivate
	// spans and retry counters land here, separate from the per-server
	// registries (Server.Obs).
	Obs *obs.Registry

	name   string
	ssgCfg ssg.Config
	nextID int
}

// NewCluster deploys n servers plus one client and waits for membership
// to converge.
func NewCluster(n int) (*Cluster, error) {
	c := &Cluster{
		Net:  na.NewInprocNetwork(),
		name: fmt.Sprintf("bench%d", clusterSeq.Add(1)),
		// Ping timeouts far above the gossip period: on an oversubscribed
		// host, scheduling hiccups must not read as failures.
		ssgCfg: ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond, SuspectPeriods: 20},
	}
	for i := 0; i < n; i++ {
		if _, err := c.AddServer(); err != nil {
			return nil, err
		}
		// Let each join settle before the next: initial formation is not
		// the elasticity under test (the elastic figures add servers
		// mid-run without waiting).
		if err := core.WaitMembers(c.Servers, i+1, 30*time.Second); err != nil {
			return nil, err
		}
	}
	ep, err := c.Net.Listen(c.name + "-client")
	if err != nil {
		return nil, err
	}
	c.MI = margo.NewInstance(ep)
	c.Client = core.NewClient(c.MI)
	c.Admin = core.NewAdminClient(c.MI)
	c.Obs = obs.NewRegistry()
	c.Client.SetObserver(c.Obs)
	catalyst.Register()
	return c, nil
}

// newPipelineCluster deploys n servers, creates pipeline name (type kind,
// config cfg) on every one, and returns the cluster with a handle on it.
func newPipelineCluster(n int, name, kind string, cfg interface{}) (*Cluster, *core.DistributedPipelineHandle, error) {
	cl, err := NewCluster(n)
	if err != nil {
		return nil, nil, err
	}
	if err := cl.CreatePipelineEverywhere(name, kind, cfg); err != nil {
		cl.Shutdown()
		return nil, nil, err
	}
	h := cl.Client.Handle(name, cl.Contact())
	h.SetTimeout(300 * time.Second)
	return cl, h, nil
}

// AddServer launches one more staging daemon; it joins via the first live
// server, exactly like the paper's job-script scale-up.
func (c *Cluster) AddServer() (*core.Server, error) {
	cfg := core.ServerConfig{GroupName: c.name, SSG: c.ssgCfg}
	cfg.SSG.Seed = int64(c.nextID + 1)
	if len(c.Servers) > 0 {
		cfg.Bootstrap = c.Servers[0].Addr()
	}
	s, err := core.StartInprocServer(c.Net, fmt.Sprintf("%s-srv%d", c.name, c.nextID), cfg)
	if err != nil {
		return nil, err
	}
	c.nextID++
	c.Servers = append(c.Servers, s)
	return s, nil
}

// Contact returns an address clients can bootstrap from.
func (c *Cluster) Contact() string { return c.Servers[0].Addr() }

// CreatePipelineEverywhere instantiates a pipeline on every live server.
func (c *Cluster) CreatePipelineEverywhere(name, typeName string, cfg interface{}) error {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	for _, s := range c.Servers {
		if s.Provider.Leaving() {
			continue
		}
		if err := c.Admin.CreatePipeline(s.Addr(), name, typeName, raw); err != nil {
			return err
		}
	}
	return nil
}

// CreatePipelineOn instantiates a pipeline on one server (used after a
// scale-up).
func (c *Cluster) CreatePipelineOn(s *core.Server, name, typeName string, cfg interface{}) error {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return c.Admin.CreatePipeline(s.Addr(), name, typeName, raw)
}

// Shutdown kills everything.
func (c *Cluster) Shutdown() {
	if c.MI != nil {
		c.MI.Finalize()
	}
	for _, s := range c.Servers {
		s.Shutdown()
	}
}
