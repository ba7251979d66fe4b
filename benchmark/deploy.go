package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/obs"
	"colza/internal/ssg"
)

const (
	pipelineName = "bench"
	servers      = 2
	rpcTimeout   = 30 * time.Second
	// traceCapacity sizes every registry's span ring in a deployment. At the
	// program's default of 8192 a full ring shifts ~0.8 MB on every span
	// (obs.span_us.full), which on mb_stage_tcp_perblock (~1000 spans per
	// iteration) is a memmove of 0.8 GB per iteration once the ring fills at
	// iteration 16: iterations drift from 75 to 130 ms inside a round and
	// the workload times memory bandwidth, not RPC round trips. Nothing here
	// reads the program's rings, so they are kept small.
	traceCapacity = 64
)

// fabric hands out endpoints of one transport. Shared-memory segments live
// in scratchDir, inside the checkout, under short names: a unix socket path
// is capped at ~100 bytes.
type fabric struct {
	transport string
	inproc    *na.InprocNetwork
	smDir     string
	seq       int
}

func newFabric(transport string) (*fabric, error) {
	f := &fabric{transport: transport}
	switch transport {
	case transportInproc:
		f.inproc = na.NewInprocNetwork()
	case transportSM:
		dir, err := smScratch()
		if err != nil {
			return nil, err
		}
		f.smDir = dir
	}
	return f, nil
}

// scratchDir is where the benchmark writes what it must (sm segments).
// The driver builds into .bench_build; reuse it.
const scratchDir = ".bench_build"

// smScratch makes a fresh segment directory. A checkout path too long for a
// unix socket falls back to the system temp dir, the only case in which the
// benchmark writes outside its checkout.
func smScratch() (string, error) {
	abs, err := filepath.Abs(scratchDir)
	if err != nil {
		return "", err
	}
	if len(abs)+len("/sm0123456789/s00.sock") > 100 {
		return os.MkdirTemp("", "czb-")
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(abs, "sm")
}

func (f *fabric) close() {
	if f.smDir != "" {
		os.RemoveAll(f.smDir)
	}
}

// listen opens an endpoint for RPC traffic.
func (f *fabric) listen() (na.Endpoint, error) {
	f.seq++
	switch f.transport {
	case transportInproc:
		return f.inproc.Listen(fmt.Sprintf("ep%d", f.seq))
	case transportSM:
		ep, err := na.ListenDual("127.0.0.1:0", f.smDir, fmt.Sprintf("s%d", f.seq))
		if err != nil {
			return nil, err
		}
		ep.SetRouteLog(nil)
		return ep, nil
	default:
		return na.ListenTCP("127.0.0.1:0")
	}
}

// listenMona opens an endpoint for pipeline collectives: MoNA runs on TCP
// whenever RPC does not run on the in-memory fabric.
func (f *fabric) listenMona() (na.Endpoint, error) {
	if f.transport == transportInproc {
		f.seq++
		return f.inproc.Listen(fmt.Sprintf("ep%d:mona", f.seq))
	}
	return na.ListenTCP("127.0.0.1:0")
}

// deployment is a staging area plus one client, all in this process.
type deployment struct {
	w       workload
	tiny    bool
	fab     *fabric
	servers []*core.Server
	mi      *margo.Instance
	admin   *core.AdminClient
	handle  *core.DistributedPipelineHandle
	// reg is the client-side registry, attached only on traced rounds.
	reg *obs.Registry
}

// deploy starts the servers, waits for membership to converge, creates the
// pipeline everywhere and opens the one client handle.
func deploy(w workload, tiny, traced bool) (*deployment, error) {
	fab, err := newFabric(w.transport)
	if err != nil {
		return nil, err
	}
	d := &deployment{w: w, tiny: tiny, fab: fab}
	for i := 0; i < servers; i++ {
		if _, err := d.addServer(); err != nil {
			d.shutdown()
			return nil, err
		}
	}
	ep, err := fab.listen()
	if err != nil {
		d.shutdown()
		return nil, err
	}
	d.mi = margo.NewInstance(ep)
	client := core.NewClient(d.mi)
	if traced {
		d.reg = obs.NewRegistry()
		d.reg.SetTraceCapacity(traceCapacity)
		client.SetObserver(d.reg)
	} else {
		// Without an observer the client reports into the process default.
		obs.Default().SetTraceCapacity(traceCapacity)
	}
	d.admin = core.NewAdminClient(d.mi)
	for _, s := range d.servers {
		if err := d.createPipeline(s); err != nil {
			d.shutdown()
			return nil, err
		}
	}
	d.handle = client.Handle(pipelineName, d.servers[0].Addr())
	d.handle.SetTimeout(rpcTimeout)
	if w.batching {
		d.handle.SetBatching(core.BatchConfig{})
	}
	if w.codec != "" {
		if err := d.handle.SetCodec(w.codec); err != nil {
			d.shutdown()
			return nil, err
		}
	}
	return d, nil
}

// addServer starts one more staging server and waits until every member's
// view includes it.
func (d *deployment) addServer() (*core.Server, error) {
	rpcEP, err := d.fab.listen()
	if err != nil {
		return nil, err
	}
	monaEP, err := d.fab.listenMona()
	if err != nil {
		rpcEP.Close()
		return nil, err
	}
	// Ping timeouts far above the gossip period: on a 2-core box a
	// scheduling hiccup must not read as a failed member.
	cfg := core.ServerConfig{SSG: ssg.Config{
		GossipPeriod: 5 * time.Millisecond, PingTimeout: 100 * time.Millisecond,
		SuspectPeriods: 20, Seed: int64(len(d.servers) + 1),
	}}
	if len(d.servers) > 0 {
		cfg.Bootstrap = d.servers[0].Addr()
	}
	s, err := core.StartServer(rpcEP, monaEP, cfg)
	if err != nil {
		return nil, err
	}
	s.Obs.SetTraceCapacity(traceCapacity)
	d.servers = append(d.servers, s)
	return s, d.waitConverged(10 * time.Second)
}

func (d *deployment) waitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, s := range d.servers {
			ok = ok && len(s.Group.Members()) == len(d.servers)
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("membership did not converge to %d servers", len(d.servers))
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *deployment) createPipeline(s *core.Server) error {
	var raw json.RawMessage
	if d.w.config != nil {
		var err error
		if raw, err = json.Marshal(d.w.config(d.tiny)); err != nil {
			return err
		}
	}
	return d.admin.CreatePipeline(s.Addr(), pipelineName, d.w.pipeline, raw)
}

func (d *deployment) shutdown() {
	if d.handle != nil {
		d.handle.Close()
	}
	if d.mi != nil {
		d.mi.Finalize()
	}
	for _, s := range d.servers {
		s.Shutdown()
	}
	d.fab.close()
}

// serverSnapshot sums the servers' registries: counters add, histograms
// merge.
func (d *deployment) serverSnapshot() obs.Snapshot {
	out := obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistSnapshot{}}
	for _, s := range d.servers {
		snap := s.Obs.Snapshot()
		for k, v := range snap.Counters {
			out.Counters[k] += v
		}
		for k, h := range snap.Histograms {
			out.Histograms[k] = out.Histograms[k].Merge(h)
		}
	}
	return out
}
