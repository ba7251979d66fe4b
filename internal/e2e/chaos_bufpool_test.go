package e2e

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// blockByte is the deterministic content pattern for a staged block:
// every byte is a function of (iteration, block id, offset), so a buffer
// that was recycled or scribbled between expose and pull decodes to the
// wrong pattern and is caught at the backend.
func blockByte(it uint64, block, i int) byte {
	return byte(uint64(i)*2654435761 + it*31 + uint64(block)*17)
}

// checksumPipeline verifies every staged payload against the pattern for
// its (iteration, block id). Duplicates from at-least-once retries are
// fine; corrupted content — the signature of a recycled pooled buffer
// observed by a late bulk pull — is not. It copies nothing: per the
// Backend contract it only reads data during the call.
type checksumPipeline struct {
	mu      sync.Mutex
	staged  int
	corrupt []string
}

func (c *checksumPipeline) Activate(ctx core.IterationContext) error { return nil }

func (c *checksumPipeline) Stage(it uint64, meta core.BlockMeta, data []byte) error {
	bad := -1
	for i, b := range data {
		if b != blockByte(it, meta.BlockID, i) {
			bad = i
			break
		}
	}
	c.mu.Lock()
	c.staged++
	if bad >= 0 {
		c.corrupt = append(c.corrupt,
			fmt.Sprintf("iter %d block %d: byte %d/%d corrupted", it, meta.BlockID, bad, len(data)))
	}
	c.mu.Unlock()
	return nil
}

func (c *checksumPipeline) Execute(it uint64) (core.ExecResult, error) {
	return core.ExecResult{}, nil
}
func (c *checksumPipeline) Deactivate(it uint64) error { return nil }
func (c *checksumPipeline) Destroy() error             { return nil }

var (
	checksumMu    sync.Mutex
	checksumInsts []*checksumPipeline
)

func init() {
	core.RegisterPipelineType("checksum", func(cfg json.RawMessage) (core.Backend, error) {
		p := &checksumPipeline{}
		checksumMu.Lock()
		checksumInsts = append(checksumInsts, p)
		checksumMu.Unlock()
		return p, nil
	})
}

// TestChaosStageRetryBufferOwnership is the buffer-ownership regression of
// the chaos suite: with the stage hot path pooled end to end, a Stage
// retry after an injected drop (request and response variants) must still
// pull the original bytes — never a recycled or already-reused buffer —
// and every exposed bulk region must be released by shutdown, client and
// servers alike (the mercury.bulk.exposed.bytes balance check).
//
// The arms rerun the identical fault plan with the wire codec off, through
// flate, and through delta: the compressed paths add a second pooled buffer
// and the delta base-mismatch fallback to the retry machinery, and none of
// it may change what the backend observes.
//
// The raw arm runs at two block sizes, one on each side of mercury's eager
// limit: 1 MiB blocks are pulled out of the exposed buffer (a retry's pull
// re-reads it), 64 KiB blocks ride inside the stage frame (a retry resends a
// frame that carries the bytes itself, and the server borrows them from the
// request). The compressed arms' payloads are small, so they ride too.
func TestChaosStageRetryBufferOwnership(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		runChaosStageRetryBufferOwnership(t, "own-raw", chaosPulledBlockLen, func(h *core.DistributedPipelineHandle) {})
	})
	t.Run("raw-eager", func(t *testing.T) {
		runChaosStageRetryBufferOwnership(t, "own-rawe", chaosEagerBlockLen, func(h *core.DistributedPipelineHandle) {})
	})
	t.Run("flate", func(t *testing.T) {
		runChaosStageRetryBufferOwnership(t, "own-flate", chaosEagerBlockLen, func(h *core.DistributedPipelineHandle) {
			if err := h.SetCodec("flate"); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("delta", func(t *testing.T) {
		runChaosStageRetryBufferOwnership(t, "own-delta", chaosEagerBlockLen, func(h *core.DistributedPipelineHandle) {
			if err := h.SetCodec("delta"); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// Block sizes on either side of mercury's eager limit; the arms assert from
// the bulk counters that they landed on the side they name.
const (
	chaosEagerBlockLen  = 64 << 10
	chaosPulledBlockLen = 1 << 20
)

// assertStageTransfer checks which way the staged regions of a chaos arm
// travelled. Eager: every region rode in its stage frame — the servers
// pulled nothing and the client served no bulk_pull, so each retried frame
// was self-contained. Pulled: nothing rode, everything was pulled.
func assertStageTransfer(t *testing.T, eager bool, client *obs.Registry, servers []*core.Server, regions int64) {
	t.Helper()
	var rode, pulled int64
	for _, s := range servers {
		snap := s.Obs.Snapshot()
		rode += snap.Counters["mercury.bulk.eager.count"]
		pulled += snap.Counters["mercury.bulk.pull.count"]
	}
	served := client.Snapshot().Counters["mercury.serve.count{rpc=__mercury/bulk_pull}"]
	if eager && (rode < regions || pulled != 0 || served != 0) {
		t.Errorf("eager arm: %d regions rode in their frames (want >= %d), %d pulls, %d bulk_pull RPCs served by the client (want 0 and 0)",
			rode, regions, pulled, served)
	}
	if !eager && (rode != 0 || pulled < regions) {
		t.Errorf("pulled arm: %d pulls (want >= %d), %d regions rode in their frames (want 0)", pulled, regions, rode)
	}
}

func runChaosStageRetryBufferOwnership(t *testing.T, prefix string, blockLen int, configure func(h *core.DistributedPipelineHandle)) {
	net := na.NewInprocNetwork()
	var servers []*core.Server
	for i := 0; i < 2; i++ {
		boot := ""
		if i > 0 {
			boot = servers[0].Addr()
		}
		s, err := core.StartInprocServer(net, fmt.Sprintf("%s%d", prefix, i), core.ServerConfig{Bootstrap: boot, SSG: chaosSSG(int64(i + 1))})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		defer s.Shutdown()
	}
	waitMembers(t, servers, 2)

	checksumMu.Lock()
	instsBefore := len(checksumInsts)
	checksumMu.Unlock()

	ep, _ := net.Listen(prefix + "-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	reg := obs.NewRegistry()
	client.SetObserver(reg)
	admin := core.NewAdminClient(mi)
	for _, s := range servers {
		if err := admin.CreatePipeline(s.Addr(), "viz", "checksum", nil); err != nil {
			t.Fatal(err)
		}
	}

	// The leak check must hold whatever else the test concludes.
	defer func() {
		classes := []*mercury.Class{mi.Class()}
		for _, s := range servers {
			classes = append(classes, s.MI.Class())
		}
		mercury.VerifyNoExposedLeaks(t, classes...)
	}()

	h := client.Handle("viz", servers[0].Addr())
	h.SetTimeout(250 * time.Millisecond)
	configure(h)

	const iters, blocks = 3, 5
	for it := uint64(1); it <= iters; it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatalf("iteration %d activate: %v", it, err)
		}
		if it == 2 {
			// Mid-run fault injection, so the rules below only ever see stage
			// traffic. Rule 0 drops a stage *request*: the client times out and
			// retries while the bulk region stays exposed. Rule 1 drops a stage
			// *response* from server 0 to the client: the server has already
			// pulled the block when the client retries, so the retry's pull
			// re-reads a region whose first pull completed long ago — the
			// classic at-least-once duplicate, which must still carry the
			// original bytes.
			plan := na.NewFaultPlan(7).SetClassifier(func(data []byte) string {
				if name, ok := mercury.RPCNameOf(data); ok {
					return name
				}
				return "response"
			})
			plan.Add(na.FaultRule{Label: "colza::stage", Nth: 1, Drop: true})
			plan.Add(na.FaultRule{Label: "response", From: servers[0].Addr(), To: mi.Addr(), Nth: 2, Drop: true})
			net.SetFaultPlan(plan)
			defer func() {
				for rule := 0; rule < 2; rule++ {
					if plan.Fired(rule) < 1 {
						t.Errorf("fault rule %d never fired (%s)", rule, plan)
					}
				}
			}()
		}
		for b := 0; b < blocks; b++ {
			// Client-side pooling discipline under test: the block lives in a
			// pooled buffer that is recycled the moment Stage returns — legal
			// because Stage releases its bulk region before returning, even on
			// the retry paths the fault plan forces.
			data := bufpool.Get(blockLen)
			for i := range data {
				data[i] = blockByte(it, b, i)
			}
			err := h.Stage(it, core.BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data)
			bufpool.Put(data)
			if err != nil {
				t.Fatalf("iteration %d stage %d: %v", it, b, err)
			}
		}
		if _, err := h.Execute(it); err != nil {
			t.Fatalf("iteration %d execute: %v", it, err)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatalf("iteration %d deactivate: %v", it, err)
		}
	}
	net.SetFaultPlan(nil)

	// The retry path must actually have run, or the test proves nothing.
	snap := reg.Snapshot()
	if got := snap.Counters["colza.stage.retries{pipeline=viz}"]; got < 1 {
		t.Errorf("fault plan produced %d stage retries, want >= 1", got)
	}
	assertStageTransfer(t, blockLen == chaosEagerBlockLen, reg, servers, iters*blocks)
	// In the compressed arms the codec must actually have carried bytes,
	// and the forced-delta arm must have hit the base-mismatch fallback (the
	// dropped stage response leaves the server one iteration ahead, so the
	// retry's base is stale and the client must re-encode zero-base).
	if !strings.HasPrefix(prefix, "own-raw") {
		var wire int64
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "codec.bytes.out{") {
				wire += v
			}
		}
		if wire == 0 {
			t.Error("codec enabled but codec.bytes.out counted no wire bytes")
		}
	}
	if prefix == "own-flate" {
		var decoded int64
		for _, s := range servers {
			decoded += s.Obs.Snapshot().Counters["codec.bytes.in{codec=flate}"]
		}
		if decoded < 1 {
			t.Errorf("servers' codec.bytes.in{codec=flate} = %d, want > 0", decoded)
		}
	}
	if prefix == "own-delta" {
		if got := snap.Counters["codec.bytes.out{codec=delta}"]; got < 1 {
			t.Errorf("codec.bytes.out{codec=delta} = %d, want > 0", got)
		}
		if got := snap.Counters["codec.delta.fallback{pipeline=viz}"]; got < 1 {
			t.Errorf("codec.delta.fallback{pipeline=viz} = %d, want >= 1", got)
		}
	}

	checksumMu.Lock()
	defer checksumMu.Unlock()
	var staged int
	for _, p := range checksumInsts[instsBefore:] {
		p.mu.Lock()
		staged += p.staged
		for _, c := range p.corrupt {
			t.Errorf("server observed recycled/corrupted stage buffer: %s", c)
		}
		p.mu.Unlock()
	}
	if want := iters * blocks; staged < want {
		t.Errorf("backends saw %d staged blocks, want >= %d", staged, want)
	}
}
