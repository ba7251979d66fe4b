package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/bufpool"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
)

// chaosBlockByte is the deterministic content pattern for a staged block:
// every byte is a function of (iteration, block id, offset), so a buffer
// that was recycled or scribbled between expose and pull decodes to the
// wrong pattern and is caught at the backend.
func chaosBlockByte(it uint64, block, i int) byte {
	return byte(uint64(i)*2654435761 + it*31 + uint64(block)*17)
}

// checksumPipeline verifies every staged payload against the pattern for
// its (iteration, block id) — internal/e2e's backend of the same name, which
// a test in this package cannot import. Duplicates from at-least-once
// retries are fine; corrupted content is not.
type checksumPipeline struct {
	mu      sync.Mutex
	staged  int
	corrupt []string
}

func (c *checksumPipeline) Activate(ctx IterationContext) error { return nil }

func (c *checksumPipeline) Stage(it uint64, meta BlockMeta, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.staged++
	for i, b := range data {
		if b != chaosBlockByte(it, meta.BlockID, i) {
			c.corrupt = append(c.corrupt,
				fmt.Sprintf("iter %d block %d: byte %d/%d corrupted", it, meta.BlockID, i, len(data)))
			break
		}
	}
	return nil
}

func (c *checksumPipeline) Execute(it uint64) (ExecResult, error) { return ExecResult{}, nil }
func (c *checksumPipeline) Deactivate(it uint64) error            { return nil }
func (c *checksumPipeline) Destroy() error                        { return nil }

var (
	checksumMu    sync.Mutex
	checksumInsts []*checksumPipeline
)

func init() {
	RegisterPipelineType("checksum", func(cfg json.RawMessage) (Backend, error) {
		p := &checksumPipeline{}
		checksumMu.Lock()
		checksumInsts = append(checksumInsts, p)
		checksumMu.Unlock()
		return p, nil
	})
}

// Block sizes on either side of mercury's eager limit once two of them share
// a frame; the arms assert from the bulk counters that they landed on the
// side they name.
const (
	chaosEagerBlockLen  = 16 << 10
	chaosPulledBlockLen = 256 << 10
)

// TestChaosBatchedStageRetryBufferOwnership reruns internal/e2e's stage-retry
// buffer-ownership regression with the coalescing batcher engaged on the
// in-process fault fabric (where Handle itself stages per block): blocks
// ride multi-record frames whose shared payload buffer is batch-owned, and
// the fault plan drops a stage request and a stage response mid-run. The
// whole-batch retry must re-expose the original concatenated bytes — never
// recycled storage (per-byte checksums at the backend) — and every bulk
// region must be released by shutdown.
//
// The delta arm additionally forces the per-block mismatch demux: the
// dropped response leaves the server's remembered base one iteration ahead,
// so the retried frame's based blocks are refused per index and re-staged
// self-contained through the per-block path.
//
// As in the per-block suite the raw arm runs on both sides of mercury's
// eager limit: two-block batches of 256 KiB blocks are pulled, two-block
// batches of 16 KiB blocks ride inside the stage frame; the delta arm's
// batches are small and ride.
func TestChaosBatchedStageRetryBufferOwnership(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		runChaosBatchedStageRetry(t, chaosPulledBlockLen, func(h *DistributedPipelineHandle) {})
	})
	t.Run("raw-eager", func(t *testing.T) {
		runChaosBatchedStageRetry(t, chaosEagerBlockLen, func(h *DistributedPipelineHandle) {})
	})
	t.Run("delta", func(t *testing.T) {
		runChaosBatchedStageRetry(t, chaosEagerBlockLen, func(h *DistributedPipelineHandle) {
			if err := h.SetCodec("delta"); err != nil {
				t.Fatal(err)
			}
		})
	})
}

func runChaosBatchedStageRetry(t *testing.T, blockLen int, configure func(h *DistributedPipelineHandle)) {
	d := deploy(t, 2)
	checksumMu.Lock()
	instsBefore := len(checksumInsts)
	checksumMu.Unlock()
	for _, s := range d.servers {
		if err := d.admin.CreatePipeline(s.Addr(), "viz", "checksum", nil); err != nil {
			t.Fatal(err)
		}
	}

	defer func() {
		classes := []*mercury.Class{d.clientM.Class()}
		for _, s := range d.servers {
			classes = append(classes, s.MI.Class())
		}
		mercury.VerifyNoExposedLeaks(t, classes...)
	}()

	// Three blocks land on rank 0 per iteration, so two blocks a frame gives
	// two stage frames to server 0 (a size-triggered one and a
	// barrier-drained one) — enough distinct responses that the Nth-2
	// response drop below hits a stage reply, not the execute's. The age
	// trigger is off to keep frame boundaries deterministic.
	h, reg := batchedHandle(t, d, "viz", 2, -1)
	h.batch.window = make(chan struct{}, 2)
	h.SetTimeout(250 * time.Millisecond)
	configure(h)

	const iters, blocks = 3, 5
	for it := uint64(1); it <= iters; it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatalf("iteration %d activate: %v", it, err)
		}
		if it == 2 {
			// Rule 0 drops a stage *request*: the client times out with
			// the batch's shared payload still exposed and retries the whole
			// frame. Rule 1 drops a stage *response* from server 0: the
			// server has pulled and staged every block when the client
			// retries, so the duplicate pull re-reads the batch buffer long
			// after its first pull — it must still carry the original bytes.
			plan := na.NewFaultPlan(7).SetClassifier(func(data []byte) string {
				if name, ok := mercury.RPCNameOf(data); ok {
					return name
				}
				return "response"
			})
			plan.Add(na.FaultRule{Label: margo.ProviderRPCName(ProviderID, "stage"), Nth: 1, Drop: true})
			plan.Add(na.FaultRule{Label: "response", From: d.servers[0].Addr(), To: d.clientM.Addr(), Nth: 2, Drop: true})
			d.net.SetFaultPlan(plan)
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
				data[i] = chaosBlockByte(it, b, i)
			}
			err := h.Stage(it, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data)
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
	d.net.SetFaultPlan(nil)

	snap := reg.Snapshot()
	if got := snap.Counters["colza.stage.retries{pipeline=viz}"]; got < 1 {
		t.Errorf("fault plan produced %d stage retries, want >= 1", got)
	}
	if got := snap.Counters["colza.stage.batch.blocks{pipeline=viz}"]; got != iters*blocks {
		t.Errorf("batch.blocks = %d, want %d", got, iters*blocks)
	}
	// Which way the frames' regions travelled: one region per frame, and at
	// least one frame per rank an iteration. Eager: every region rode in its
	// stage frame — the servers pulled nothing and the client served no
	// bulk_pull, so each retried frame was self-contained. Pulled: nothing
	// rode, everything was pulled.
	var rode, pulled int64
	for _, s := range d.servers {
		ssnap := s.Obs.Snapshot()
		rode += ssnap.Counters["mercury.bulk.eager.count"]
		pulled += ssnap.Counters["mercury.bulk.pull.count"]
	}
	served := snap.Counters["mercury.serve.count{rpc=__mercury/bulk_pull}"]
	if eager := blockLen == chaosEagerBlockLen; eager && (rode < iters*2 || pulled != 0 || served != 0) {
		t.Errorf("eager arm: %d regions rode in their frames (want >= %d), %d pulls, %d bulk_pull RPCs served by the client (want 0 and 0)",
			rode, iters*2, pulled, served)
	} else if !eager && (rode != 0 || pulled < iters*2) {
		t.Errorf("pulled arm: %d pulls (want >= %d), %d regions rode in their frames (want 0)", pulled, iters*2, rode)
	}
	if h.codec.forced != nil {
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
