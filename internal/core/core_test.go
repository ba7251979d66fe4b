package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/collectives"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/ssg"
)

// mockPipeline records lifecycle calls and exercises the injected
// communicator at Execute with an AllReduce over staged byte counts.
type mockPipeline struct {
	mu       sync.Mutex
	ctx      IterationContext
	staged   map[uint64][]BlockMeta
	bytes    map[uint64]int
	active   bool
	activacs int
	deactivs int
	destroys int
}

func (m *mockPipeline) Activate(ctx IterationContext) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.active {
		return fmt.Errorf("mock: double activate")
	}
	m.active = true
	m.activacs++
	m.ctx = ctx
	return nil
}

func (m *mockPipeline) Stage(it uint64, meta BlockMeta, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.active {
		return fmt.Errorf("mock: stage while inactive")
	}
	if m.staged == nil {
		m.staged = map[uint64][]BlockMeta{}
		m.bytes = map[uint64]int{}
	}
	m.staged[it] = append(m.staged[it], meta)
	m.bytes[it] += len(data)
	return nil
}

func (m *mockPipeline) Execute(it uint64) (ExecResult, error) {
	m.mu.Lock()
	ctx := m.ctx
	local := m.bytes[it]
	m.mu.Unlock()
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(local))
	total, err := ctx.Comm.AllReduce(1000, buf, collectives.SumInt64)
	if err != nil {
		return ExecResult{}, err
	}
	return ExecResult{Summary: map[string]float64{
		"local_bytes": float64(local),
		"total_bytes": float64(binary.LittleEndian.Uint64(total)),
		"rank":        float64(ctx.Rank),
		"size":        float64(ctx.Size),
	}}, nil
}

func (m *mockPipeline) Deactivate(it uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.active = false
	m.deactivs++
	delete(m.staged, it)
	delete(m.bytes, it)
	return nil
}

func (m *mockPipeline) Destroy() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.destroys++
	return nil
}

var (
	mockMu    sync.Mutex
	mockInsts []*mockPipeline
)

func init() {
	RegisterPipelineType("mock", func(cfg json.RawMessage) (Backend, error) {
		m := &mockPipeline{}
		mockMu.Lock()
		mockInsts = append(mockInsts, m)
		mockMu.Unlock()
		return m, nil
	})
	RegisterPipelineType("failing", func(cfg json.RawMessage) (Backend, error) {
		return nil, fmt.Errorf("refusing to construct")
	})
}

func fastSSG(seed int64) ssg.Config {
	// Probe timeouts well above the gossip period so scheduler stalls on
	// loaded single-core hosts (notably under -race) are not read as
	// failures; suspicion still expires fast enough for the crash tests.
	return ssg.Config{GossipPeriod: 5 * time.Millisecond, PingTimeout: 75 * time.Millisecond, SuspectPeriods: 10, Seed: seed}
}

// deployment spins up n servers plus a client instance.
type deployment struct {
	net     *na.InprocNetwork
	servers []*Server
	clientM *margo.Instance
	client  *Client
	admin   *AdminClient
}

func deploy(t *testing.T, n int) *deployment {
	t.Helper()
	return deployCfg(t, n, nil)
}

// deployCfg is deploy with a per-server config hook (e.g. to disable or
// raise state replication).
func deployCfg(t *testing.T, n int, mutate func(i int, cfg *ServerConfig)) *deployment {
	t.Helper()
	d := &deployment{net: na.NewInprocNetwork()}
	for i := 0; i < n; i++ {
		cfg := ServerConfig{SSG: fastSSG(int64(i + 1))}
		if i > 0 {
			cfg.Bootstrap = d.servers[0].Addr()
		}
		if mutate != nil {
			mutate(i, &cfg)
		}
		s, err := StartInprocServer(d.net, fmt.Sprintf("srv%d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.servers = append(d.servers, s)
	}
	ep, err := d.net.Listen("client")
	if err != nil {
		t.Fatal(err)
	}
	d.clientM = margo.NewInstance(ep)
	d.client = NewClient(d.clientM)
	d.admin = NewAdminClient(d.clientM)
	d.waitGroupSize(t, n, 10*time.Second)
	t.Cleanup(func() {
		d.clientM.Finalize()
		for _, s := range d.servers {
			s.Shutdown()
		}
	})
	return d
}

// waitGroupSize waits until every live server sees exactly n members.
func (d *deployment) waitGroupSize(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, s := range d.servers {
			if s.Provider.Leaving() {
				continue
			}
			if len(s.Group.Members()) != n {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("group did not reach size %d", n)
}

// createEverywhere instantiates the mock pipeline on all servers.
func (d *deployment) createEverywhere(t *testing.T, name string) {
	t.Helper()
	for _, s := range d.servers {
		if s.Provider.Leaving() {
			continue
		}
		if err := d.admin.CreatePipeline(s.Addr(), name, "mock", nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSingleServerLifecycle(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)

	view, err := h.Activate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 1 {
		t.Fatalf("view has %d members", len(view.Members))
	}
	data := bytes.Repeat([]byte{9}, 1234)
	if err := h.Stage(1, BlockMeta{Field: "rho", BlockID: 0, Type: "raw"}, data); err != nil {
		t.Fatal(err)
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Summary["total_bytes"] != 1234 {
		t.Fatalf("results = %+v", res)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksDistributedByBlockID(t *testing.T) {
	d := deploy(t, 3)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	const blocks = 9
	for b := 0; b < blocks; b++ {
		data := bytes.Repeat([]byte{byte(b)}, 100*(b+1))
		if err := h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d results", len(res))
	}
	var total float64
	for r, er := range res {
		if er.Summary["size"] != 3 {
			t.Fatalf("rank %d saw comm size %v", r, er.Summary["size"])
		}
		if er.Summary["local_bytes"] == 0 {
			t.Fatalf("rank %d staged nothing; distribution broken", r)
		}
		total = er.Summary["total_bytes"]
	}
	want := 0.0
	for b := 0; b < blocks; b++ {
		want += float64(100 * (b + 1))
	}
	if total != want {
		t.Fatalf("allreduce total = %v, want %v", total, want)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}

func TestElasticGrow(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	view, err := h.Activate(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 2 {
		t.Fatalf("iter 1 view = %d members", len(view.Members))
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}

	// A third server joins between iterations.
	s3, err := StartInprocServer(d.net, "srv-late", ServerConfig{
		Bootstrap: d.servers[0].Addr(), SSG: fastSSG(42)})
	if err != nil {
		t.Fatal(err)
	}
	d.servers = append(d.servers, s3)
	d.waitGroupSize(t, 3, 10*time.Second)
	if err := d.admin.CreatePipeline(s3.Addr(), "viz", "mock", nil); err != nil {
		t.Fatal(err)
	}

	view, err = h.Activate(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 3 {
		t.Fatalf("iter 2 view = %d members, want 3", len(view.Members))
	}
	res, err := h.Execute(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Summary["size"] != 3 {
			t.Fatalf("pipeline comm size = %v, want 3", r.Summary["size"])
		}
	}
	if err := h.Deactivate(2); err != nil {
		t.Fatal(err)
	}
}

func TestElasticShrinkViaAdminLeave(t *testing.T) {
	d := deploy(t, 3)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	if err := d.admin.RequestLeave(d.servers[2].Addr()); err != nil {
		t.Fatal(err)
	}
	// Remaining servers converge on 2 members.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(d.servers[0].Group.Members()) == 2 && len(d.servers[1].Group.Members()) == 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	view, err := h.Activate(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 2 {
		t.Fatalf("view after leave = %d members, want 2", len(view.Members))
	}
	h.Deactivate(2)
}

func TestLeaveDeferredWhileActive(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	// Ask server 1 to leave mid-iteration: must defer.
	if err := d.admin.RequestLeave(d.servers[1].Addr()); err != nil {
		t.Fatal(err)
	}
	if !d.servers[1].Provider.Leaving() {
		t.Fatal("server should be marked leaving")
	}
	// The frozen view still spans both servers: execute works.
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	// After deactivate the departure completes.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(d.servers[0].Group.Members()) == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("leaving server never left")
}

func TestCrashedServerEvictedAndActivateRecovers(t *testing.T) {
	d := deploy(t, 3)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(150 * time.Millisecond)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	h.Deactivate(1)
	// Server 2 crashes without announcing.
	d.servers[2].Shutdown()
	d.servers = d.servers[:2]
	// Activate retries until SWIM evicts the corpse and the 2PC agrees on
	// the surviving pair — the fault-tolerance extension (paper future
	// work (1)).
	view, err := h.Activate(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 2 {
		t.Fatalf("view = %d members, want 2", len(view.Members))
	}
	res, err := h.Execute(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	h.Deactivate(2)
}

func TestActivateBusyPipelineFails(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(300 * time.Millisecond)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	h2 := d.client.Handle("viz", d.servers[0].Addr())
	h2.SetTimeout(300 * time.Millisecond)
	h2.mu.Lock()
	h2.retries = 2
	h2.mu.Unlock()
	if _, err := h2.Activate(2); !errors.Is(err, ErrActivateFailed) {
		t.Fatalf("err = %v, want ErrActivateFailed", err)
	}
	h.Deactivate(1)
}

func TestStageExecuteOutsideIterationFail(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(time.Second)
	if err := h.Stage(1, BlockMeta{}, nil); err == nil {
		t.Fatal("stage before activate should fail")
	}
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	// Wrong iteration number.
	if err := h.Stage(99, BlockMeta{}, []byte("x")); err == nil || !strings.Contains(err.Error(), "no active iteration") {
		t.Fatalf("stage wrong iter err = %v", err)
	}
	if _, err := h.Execute(99); err == nil {
		t.Fatal("execute wrong iter should fail")
	}
	h.Deactivate(1)
	if _, err := h.Execute(1); err == nil {
		t.Fatal("execute after deactivate should fail")
	}
}

func TestAdminPipelineManagement(t *testing.T) {
	d := deploy(t, 1)
	addr := d.servers[0].Addr()
	if err := d.admin.CreatePipeline(addr, "p1", "mock", nil); err != nil {
		t.Fatal(err)
	}
	if err := d.admin.CreatePipeline(addr, "p1", "mock", nil); err == nil {
		t.Fatal("duplicate create should fail")
	}
	if err := d.admin.CreatePipeline(addr, "p2", "no-such-type", nil); err == nil {
		t.Fatal("unknown type should fail")
	}
	if err := d.admin.CreatePipeline(addr, "p3", "failing", nil); err == nil {
		t.Fatal("failing factory should fail")
	}
	names, err := d.admin.ListPipelines(addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "p1" {
		t.Fatalf("pipelines = %v", names)
	}
	if err := d.admin.DestroyPipeline(addr, "p1"); err != nil {
		t.Fatal(err)
	}
	if err := d.admin.DestroyPipeline(addr, "p1"); err == nil {
		t.Fatal("destroying twice should fail")
	}
}

func TestViewEncodeDecodeAndSetView(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	view, err := h.Activate(1)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeMemberView(view.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Epoch != view.Epoch || len(dec.Members) != len(view.Members) {
		t.Fatalf("decoded view differs: %+v vs %+v", dec, view)
	}

	// A second client rank stages using the shared view, without activating.
	ep, _ := d.net.Listen("client2")
	m2 := margo.NewInstance(ep)
	defer m2.Finalize()
	c2 := NewClient(m2)
	h2 := c2.Handle("viz", d.servers[0].Addr())
	h2.SetTimeout(2 * time.Second)
	h2.SetView(dec)
	if err := h2.Stage(1, BlockMeta{Field: "x", BlockID: 1, Type: "raw"}, []byte("peer")); err != nil {
		t.Fatal(err)
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Summary["total_bytes"] != 4 {
		t.Fatalf("total = %v, want 4", res[0].Summary["total_bytes"])
	}
	h.Deactivate(1)
}

func TestNonBlockingVariants(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "viz")
	h := d.client.Handle("viz", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	act := h.NBActivate(1)
	if _, err := act.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(act.View().Members) != 2 {
		t.Fatalf("nb view = %d members", len(act.View().Members))
	}
	st := h.NBStage(1, BlockMeta{Field: "f", BlockID: 0, Type: "raw"}, []byte("abc"))
	if _, err := st.Wait(); err != nil {
		t.Fatal(err)
	}
	ex := h.NBExecute(1)
	res, err := ex.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if !ex.Test() {
		t.Fatal("Test after Wait should be true")
	}
	de := h.NBDeactivate(1)
	if _, err := de.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestCommitWithoutPrepareRejected(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	payload, _ := json.Marshal(epochMsg{Pipeline: "viz", Iteration: 1, Epoch: 777})
	_, err := d.clientM.CallProvider(d.servers[0].Addr(), ProviderID, "commit", payload, time.Second)
	if err == nil || !strings.Contains(err.Error(), "without matching prepare") {
		t.Fatalf("err = %v", err)
	}
}

func TestDefaultPlacement(t *testing.T) {
	if DefaultPlacement(BlockMeta{BlockID: 7}, 3) != 1 {
		t.Fatal("7 % 3 should be 1")
	}
	if DefaultPlacement(BlockMeta{BlockID: -7}, 3) != 1 {
		t.Fatal("negative ids must stay in range")
	}
	if DefaultPlacement(BlockMeta{BlockID: 5}, 0) != 0 {
		t.Fatal("zero servers should degrade to 0")
	}
}

func TestCommIDDistinctAcrossPipelines(t *testing.T) {
	if CommID("a", 5) == CommID("b", 5) {
		t.Fatal("different pipelines must get different comm ids")
	}
	if CommID("a", 5) == CommID("a", 6) {
		t.Fatal("different epochs must get different comm ids")
	}
	if CommID("x", 0) == 0 {
		t.Fatal("comm id must never be zero")
	}
}

// A server that is shut down releases what its pipelines hold: every
// backend is destroyed, even though the caller may keep the Server value.
func TestShutdownDestroysBackends(t *testing.T) {
	d := deploy(t, 1)
	mockMu.Lock()
	before := len(mockInsts)
	mockMu.Unlock()
	d.createEverywhere(t, "viz")
	d.createEverywhere(t, "viz2")
	mockMu.Lock()
	created := append([]*mockPipeline(nil), mockInsts[before:]...)
	mockMu.Unlock()
	if len(created) != 2 {
		t.Fatalf("%d mock pipelines created, want 2", len(created))
	}
	d.servers[0].Shutdown()
	for i, m := range created {
		m.mu.Lock()
		n := m.destroys
		m.mu.Unlock()
		if n != 1 {
			t.Errorf("pipeline %d destroyed %d times by Shutdown, want once", i, n)
		}
	}
}
