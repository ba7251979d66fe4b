package e2e

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// TestChaosBatchedStageRetryBufferOwnership reruns the stage-retry
// buffer-ownership regression with the coalescing batcher engaged: blocks
// ride multi-block stagewire v3 frames whose shared payload buffer is
// batch-owned, and the fault plan drops a stage_batch request and a
// stage_batch response mid-run. The whole-batch retry must re-expose the
// original concatenated bytes — never recycled storage (per-byte checksums
// at the backend) — and every bulk region must be released by shutdown.
//
// The delta arm additionally forces the per-block mismatch demux: the
// dropped response leaves the server's remembered base one iteration ahead,
// so the retried frame's based blocks are refused per index and re-staged
// self-contained through the v2 fallback path.
//
// As in the per-block suite the raw arm runs on both sides of mercury's
// eager limit: two-block batches of 256 KiB blocks are pulled, two-block
// batches of 16 KiB blocks ride inside the stage_batch frame; the delta
// arm's batches are small and ride.
func TestChaosBatchedStageRetryBufferOwnership(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		runChaosBatchedStageRetry(t, "bown-raw", chaosPulledBlockLen/4, func(h *core.DistributedPipelineHandle) {})
	})
	t.Run("raw-eager", func(t *testing.T) {
		runChaosBatchedStageRetry(t, "bown-rawe", chaosEagerBlockLen/4, func(h *core.DistributedPipelineHandle) {})
	})
	t.Run("delta", func(t *testing.T) {
		runChaosBatchedStageRetry(t, "bown-delta", chaosEagerBlockLen/4, func(h *core.DistributedPipelineHandle) {
			if err := h.SetCodec("delta"); err != nil {
				t.Fatal(err)
			}
		})
	})
}

func runChaosBatchedStageRetry(t *testing.T, prefix string, blockLen int, configure func(h *core.DistributedPipelineHandle)) {
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

	defer func() {
		classes := []*mercury.Class{mi.Class()}
		for _, s := range servers {
			classes = append(classes, s.MI.Class())
		}
		mercury.VerifyNoExposedLeaks(t, classes...)
	}()

	h := client.Handle("viz", servers[0].Addr())
	h.SetTimeout(250 * time.Millisecond)
	// Three blocks land on rank 0 per iteration, so MaxBlocks 2 gives two
	// stage_batch frames to server 0 (a size-triggered one and a
	// barrier-drained one) — enough distinct responses that the Nth-2
	// response drop below hits a stage_batch reply, not the execute's. The
	// age trigger is off to keep frame boundaries deterministic.
	h.SetBatching(core.BatchConfig{MaxBlocks: 2, MaxAge: -1, Window: 2})
	defer h.Close()
	configure(h)

	const iters, blocks = 3, 5
	for it := uint64(1); it <= iters; it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatalf("iteration %d activate: %v", it, err)
		}
		if it == 2 {
			// Rule 0 drops a stage_batch *request*: the client times out with
			// the batch's shared payload still exposed and retries the whole
			// frame. Rule 1 drops a stage_batch *response* from server 0: the
			// server has pulled and staged every block when the client
			// retries, so the duplicate pull re-reads the batch buffer long
			// after its first pull — it must still carry the original bytes.
			plan := na.NewFaultPlan(7).SetClassifier(func(data []byte) string {
				if name, ok := mercury.RPCNameOf(data); ok {
					return name
				}
				return "response"
			})
			plan.Add(na.FaultRule{Label: "colza::stage_batch", Nth: 1, Drop: true})
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
			// Batched ownership discipline under test: enqueue copies, so the
			// caller's pooled buffer is legally recycled the moment Stage
			// returns — long before the batch frame (or its retries) goes out.
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
		if err := h.Flush(it); err != nil {
			t.Fatalf("iteration %d flush: %v", it, err)
		}
		if _, err := h.Execute(it); err != nil {
			t.Fatalf("iteration %d execute: %v", it, err)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatalf("iteration %d deactivate: %v", it, err)
		}
	}
	net.SetFaultPlan(nil)

	snap := reg.Snapshot()
	if got := snap.Counters["colza.stage.retries{pipeline=viz}"]; got < 1 {
		t.Errorf("fault plan produced %d stage retries, want >= 1", got)
	}
	if got := snap.Counters["colza.stage.batch.blocks{pipeline=viz}"]; got != iters*blocks {
		t.Errorf("batch.blocks = %d, want %d", got, iters*blocks)
	}
	// One region per batch frame, and at least one frame per rank an
	// iteration.
	assertStageTransfer(t, blockLen == chaosEagerBlockLen/4, reg, servers, iters*2)
	if prefix == "bown-delta" {
		var wire int64
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, "codec.bytes.out{") {
				wire += v
			}
		}
		if wire == 0 {
			t.Error("codec enabled but codec.bytes.out counted no wire bytes")
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
