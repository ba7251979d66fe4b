package core

import (
	"errors"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// smBatchDeployment is one server and one client on sm+tcp dual endpoints,
// a checksum pipeline "viz" on the server, and
// a client handle that coalesces (Handle's own choice on such an endpoint)
// with the age trigger off, so that only the size triggers cut frames.
type smBatchDeployment struct {
	srv *Server
	cls *mercury.Class
	reg *obs.Registry // the client's
	sum *checksumPipeline
	h   *DistributedPipelineHandle
}

func newSMBatchDeployment(t *testing.T) *smBatchDeployment {
	t.Helper()
	listen := func() na.Endpoint {
		ep, err := na.ListenDual("127.0.0.1:0", "", "")
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	srv, err := StartServer(listen(), listen(), ServerConfig{SSG: fastSSG(1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	mi := margo.NewInstance(listen())
	t.Cleanup(mi.Finalize)
	client := NewClient(mi)
	reg := obs.NewRegistry()
	client.SetObserver(reg)
	checksumMu.Lock()
	n := len(checksumInsts)
	checksumMu.Unlock()
	if err := NewAdminClient(mi).CreatePipeline(srv.Addr(), "viz", "checksum", nil); err != nil {
		t.Fatal(err)
	}
	checksumMu.Lock()
	sum := checksumInsts[n]
	checksumMu.Unlock()
	h := client.Handle("viz", srv.Addr())
	t.Cleanup(h.Close)
	if h.batch == nil {
		t.Fatal("a handle on an sm+tcp endpoint does not coalesce")
	}
	h.SetTimeout(10 * time.Second)
	h.batch.maxAge = -1
	return &smBatchDeployment{srv: srv, cls: mi.Class(), reg: reg, sum: sum, h: h}
}

// stage stages blocks blocks of blockLen bytes in iteration it, each filled
// with its chaos pattern, through one reused caller buffer.
func (d *smBatchDeployment) stage(t *testing.T, it uint64, blocks, blockLen int) {
	t.Helper()
	if _, err := d.h.Activate(it); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, blockLen)
	for b := 0; b < blocks; b++ {
		for i := range data {
			data[i] = chaosBlockByte(it, b, i)
		}
		if err := d.h.Stage(it, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data); err != nil {
			t.Fatal(err)
		}
	}
}

// finish closes iteration it and checks that every block landed intact and
// that the client holds no region afterwards.
func (d *smBatchDeployment) finish(t *testing.T, it uint64, blocks int) {
	t.Helper()
	if _, err := d.h.Execute(it); err != nil {
		t.Fatal(err)
	}
	if err := d.h.Deactivate(it); err != nil {
		t.Fatal(err)
	}
	d.sum.mu.Lock()
	staged, corrupt := d.sum.staged, d.sum.corrupt
	d.sum.mu.Unlock()
	if staged != blocks || len(corrupt) > 0 {
		t.Fatalf("server staged %d blocks, want %d; corrupt: %v", staged, blocks, corrupt)
	}
	mercury.VerifyNoExposedLeaks(t, d.cls)
	if got := d.reg.Gauge("na.shm.mapped.bytes").Value(); got != 0 {
		t.Fatalf("client na.shm.mapped.bytes = %d after the iteration, want 0", got)
	}
}

// counter reads a client counter of the viz pipeline's batcher.
func (d *smBatchDeployment) counter(name string) int64 {
	return d.reg.Counter(name, "pipeline", "viz").Value()
}

// The benchmark's Mandelbulb block: 16 of them are the first to pass the
// 1 MiB size trigger, so a frame holds 16.
const smBatchBlockLen = 65617

// TestStageBatchedInArena: over dual endpoints the batcher assembles every
// frame in an arena reservation and exposes it in place. The frames are cut
// where the size triggers always cut them (16 of the benchmark's blocks),
// the server copies each out of the arena in one local pull, no block
// outgrows its reservation, and every reservation is released by the end of
// the iteration. The arms: an arena with no room (frames assembled in pooled
// memory, exposed by copy — and, the arena still full, pulled over RPC), and
// a handle closed with a frame still being assembled.
func TestStageBatchedInArena(t *testing.T) {
	t.Run("in place", func(t *testing.T) {
		d := newSMBatchDeployment(t)
		const blocks, frames = 512, 32
		d.stage(t, 1, blocks, smBatchBlockLen)
		d.finish(t, 1, blocks)
		if got := d.counter("colza.stage.batch.flushes"); got != frames {
			t.Errorf("colza.stage.batch.flushes = %d, want %d (16 blocks a frame)", got, frames)
		}
		if got := d.counter("colza.stage.batch.full"); got != frames {
			t.Errorf("colza.stage.batch.full = %d, want %d", got, frames)
		}
		if got := d.counter("colza.stage.batch.outgrown"); got != 0 {
			t.Errorf("colza.stage.batch.outgrown = %d, want 0", got)
		}
		if got := d.reg.Counter("na.shm.expose.fallback").Value(); got != 0 {
			t.Errorf("client na.shm.expose.fallback = %d, want 0", got)
		}
		if local, fell := d.srv.Obs.Counter("na.shm.pull.local").Value(), d.srv.Obs.Counter("na.shm.pull.fallback").Value(); local != frames || fell != 0 {
			t.Errorf("server na.shm.pull.local = %d, na.shm.pull.fallback = %d; want %d and 0", local, fell, frames)
		}
	})

	t.Run("arena full", func(t *testing.T) {
		d := newSMBatchDeployment(t)
		var hogs []mercury.Bulk
		for n := 1 << 30; n >= 4<<10; n /= 2 {
			for {
				r, span := d.cls.Reserve(n)
				if span == nil {
					break
				}
				hogs = append(hogs, r)
			}
		}
		if len(hogs) == 0 {
			t.Fatal("the client's endpoint reserved nothing")
		}
		before := d.reg.Counter("na.shm.expose.fallback").Value()
		const blocks, frames = 32, 2
		d.stage(t, 1, blocks, smBatchBlockLen)
		if err := d.h.Flush(1); err != nil {
			t.Fatal(err)
		}
		for _, r := range hogs {
			d.cls.Release(r)
		}
		d.finish(t, 1, blocks)
		// Per frame: the reservation and then the copy each found no room.
		if got := d.reg.Counter("na.shm.expose.fallback").Value() - before; got != 2*frames {
			t.Errorf("client na.shm.expose.fallback rose by %d, want %d", got, 2*frames)
		}
		if got := d.counter("colza.stage.batch.flushes"); got != frames {
			t.Errorf("colza.stage.batch.flushes = %d, want %d", got, frames)
		}
		if local, fell := d.srv.Obs.Counter("na.shm.pull.local").Value(), d.srv.Obs.Counter("na.shm.pull.fallback").Value(); local != 0 || fell != frames {
			t.Errorf("server na.shm.pull.local = %d, na.shm.pull.fallback = %d; want 0 and %d", local, fell, frames)
		}
	})

	t.Run("close with a pending reservation", func(t *testing.T) {
		d := newSMBatchDeployment(t)
		const blocks = 5 // below both size triggers: the frame stays pending
		d.stage(t, 1, blocks, smBatchBlockLen)
		if got := d.cls.ExposedBytes(); got != 2*batchMaxBytes {
			t.Fatalf("client holds %d bytes of regions with one frame pending, want its %d-byte reservation", got, 2*batchMaxBytes)
		}
		d.h.Close()
		if err := d.h.Flush(1); !errors.Is(err, ErrHandleClosed) {
			t.Fatalf("Flush after close = %v, want the pending blocks' ErrHandleClosed", err)
		}
		mercury.VerifyNoExposedLeaks(t, d.cls)
		if got := d.reg.Gauge("na.shm.mapped.bytes").Value(); got != 0 {
			t.Fatalf("client na.shm.mapped.bytes = %d after Close, want 0", got)
		}
		if got := d.counter("colza.stage.batch.flushes"); got != 0 {
			t.Fatalf("colza.stage.batch.flushes = %d, want 0: the frame was sent", got)
		}
	})
}

// TestStageBatchedOutgrow: a block larger than the size trigger arriving at a
// frame that holds smaller ones moves the frame to storage that fits it —
// counted, and cut where it would have been anyway (right after that block).
func TestStageBatchedOutgrow(t *testing.T) {
	d := newSMBatchDeployment(t)
	if _, err := d.h.Activate(1); err != nil {
		t.Fatal(err)
	}
	sizes := []int{1000, 3 * batchMaxBytes, 1000}
	for b, n := range sizes {
		data := make([]byte, n)
		for i := range data {
			data[i] = chaosBlockByte(1, b, i)
		}
		if err := d.h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, data); err != nil {
			t.Fatal(err)
		}
	}
	d.finish(t, 1, len(sizes))
	if got := d.counter("colza.stage.batch.outgrown"); got != 1 {
		t.Errorf("colza.stage.batch.outgrown = %d, want 1", got)
	}
	if full, flushes := d.counter("colza.stage.batch.full"), d.counter("colza.stage.batch.flushes"); full != 1 || flushes != 2 {
		t.Errorf("colza.stage.batch.full = %d, flushes = %d; want 1 and 2", full, flushes)
	}
	if got := d.srv.Obs.Counter("na.shm.pull.local").Value(); got != 2 {
		t.Errorf("server na.shm.pull.local = %d, want 2", got)
	}
}
