package core

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"colza/internal/codec"
	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// TestStageCoalescesByTransport: which way a handle stages follows from its
// endpoint and nothing else — no setter is called here. In-process and TCP
// clients stage per block (no batch is ever flushed, every small block rides
// in its stage frame); an sm+tcp client, whose regions are published in its
// arena and therefore never ride, coalesces (batches are flushed, nothing
// rides).
func TestStageCoalescesByTransport(t *testing.T) {
	inproc := na.NewInprocNetwork()
	smDir, err := os.MkdirTemp("", "czsm-core-")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(smDir) })
	for _, tc := range []struct {
		name     string
		listen   func(name string) (na.Endpoint, error)
		coalesce bool
	}{
		{"inproc", func(name string) (na.Endpoint, error) { return inproc.Listen(name) }, false},
		{"tcp", func(string) (na.Endpoint, error) { return na.ListenTCP("127.0.0.1:0") }, false},
		{"sm+tcp", func(string) (na.Endpoint, error) { return na.ListenDual("127.0.0.1:0", smDir, "") }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			listen := func(name string) na.Endpoint {
				ep, err := tc.listen(name)
				if err != nil {
					t.Fatal(err)
				}
				return ep
			}
			srv, err := StartServer(listen("sel-rpc"), listen("sel-mona"), ServerConfig{SSG: fastSSG(1)})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown()
			mi := margo.NewInstance(listen("sel-client"))
			defer mi.Finalize()
			client := NewClient(mi)
			reg := obs.NewRegistry()
			client.SetObserver(reg)
			if err := NewAdminClient(mi).CreatePipeline(srv.Addr(), "viz", "mock", nil); err != nil {
				t.Fatal(err)
			}
			h := client.Handle("viz", srv.Addr())
			defer h.Close()
			h.SetTimeout(5 * time.Second)

			const blocks = 3
			if _, err := h.Activate(1); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < blocks; b++ {
				if err := h.Stage(1, BlockMeta{Field: "v", BlockID: b, Type: "raw"}, bytes.Repeat([]byte{byte(b)}, 1024)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := h.Execute(1); err != nil {
				t.Fatal(err)
			}
			if err := h.Deactivate(1); err != nil {
				t.Fatal(err)
			}

			flushes := reg.Snapshot().Counters["colza.stage.batch.flushes{pipeline=viz}"]
			srvSnap := srv.Obs.Snapshot()
			rode := srvSnap.Counters["mercury.bulk.eager.count"]
			if got := srvSnap.Counters["colza.staged.blocks{pipeline=viz}"]; got != blocks {
				t.Fatalf("server staged %d blocks, want %d", got, blocks)
			}
			if tc.coalesce && (flushes < 1 || rode != 0) {
				t.Errorf("%d batches flushed, %d regions rode in their frames; want >= 1 and 0", flushes, rode)
			}
			if !tc.coalesce && (flushes != 0 || rode != blocks) {
				t.Errorf("%d batches flushed, %d regions rode in their frames; want 0 and %d", flushes, rode, blocks)
			}
		})
	}
}

// stageScript serves "stage" on a raw margo pair (busyPair) from a script
// and hands the test a handle pinned to that server. The script sees each
// decoded frame's records.
func stageScript(t *testing.T, script func(call int, recs []stageBatchRec) ([]byte, error)) (*DistributedPipelineHandle, *obs.Registry) {
	t.Helper()
	c, sm, reg := busyPair(t)
	var mu sync.Mutex
	calls := 0
	sm.RegisterProviderRPC(ProviderID, "stage", func(req mercury.Request) ([]byte, error) {
		_, _, recs, _, err := decodeStageBatchMsg(req.Payload)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		return script(n, recs)
	})
	h := c.Handle("viz", sm.Addr())
	t.Cleanup(h.Close)
	h.SetTimeout(5 * time.Second)
	h.SetView(MemberView{Epoch: 1, Members: []ServerInfo{{RPC: sm.Addr()}}})
	return h, reg
}

// TestStageCloseCancelsBusyBackoff: a Stage whose server keeps shedding it
// sits in Client.call's busy loop (up to 8 sleeps of 100–200 ms under this
// Retry-After); closing the handle must end that wait at once, with an error
// wrapping ErrHandleClosed, instead of serving out the schedule.
func TestStageCloseCancelsBusyBackoff(t *testing.T) {
	h, reg := stageScript(t, func(int, []stageBatchRec) ([]byte, error) {
		return nil, &mercury.BusyError{RetryAfter: 100 * time.Millisecond}
	})
	errCh := make(chan error, 1)
	go func() {
		errCh <- h.Stage(1, BlockMeta{Field: "v", Type: "raw"}, []byte{1})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("core.client.retries.busy", "rpc", "stage").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the server never shed the stage")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	h.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrHandleClosed) {
			t.Fatalf("stage returned %v, want ErrHandleClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
			t.Fatalf("stage took %v after close: it served out the busy schedule (at least 800ms)", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stage still in its busy backoff 5s after the handle closed")
	}
}

// TestStageDeltaMismatchResendIsTyped: on the synchronous path a delta base
// mismatch is recognised by the response's typed kind, not by what the
// message says. The scripted server refuses the based block with the
// mismatch kind and a text that shares nothing with the real server's; the
// client must resend that block self-contained, once, without counting a
// retry. A refusal of the other kind is final however its text reads.
func TestStageDeltaMismatchResendIsTyped(t *testing.T) {
	var based []bool
	refuse := func(kind uint8, msg string) []byte {
		return appendStageBatchResp(nil, []stageBatchBlockErr{{Index: 0, Kind: kind, Msg: msg}})
	}
	h, reg := stageScript(t, func(call int, recs []stageBatchRec) ([]byte, error) {
		if len(recs) != 1 {
			t.Errorf("call %d: %d records in a per-block frame", call, len(recs))
		}
		based = append(based, recs[0].CI.HasBase)
		switch call {
		case 2:
			return refuse(stageBatchErrDeltaMismatch, "the base is not here any more"), nil
		case 4:
			return refuse(stageBatchErrRemote, "colza: stage delta base mismatch: not that kind"), nil
		}
		return stageRespAllLanded, nil
	})
	if err := h.SetCodec("delta"); err != nil {
		t.Fatal(err)
	}
	block := func(it byte) []byte { return append(bytes.Repeat([]byte{9}, 255), it) }
	meta := BlockMeta{Field: "v", Type: "raw"}
	if err := h.Stage(1, meta, block(1)); err != nil { // call 1: no base yet
		t.Fatal(err)
	}
	if err := h.Stage(2, meta, block(2)); err != nil { // call 2 refused, call 3 the resend
		t.Fatalf("stage after a typed mismatch: %v", err)
	}
	err := h.Stage(3, meta, block(3)) // call 4: refused for good
	if err == nil || Classify(err) != ClassRemote {
		t.Fatalf("stage refused with the remote kind: %v (class %v), want a remote error", err, Classify(err))
	}
	if want := []bool{false, true, false, true}; !slices.Equal(based, want) {
		t.Fatalf("frames carried a delta base: %v, want %v", based, want)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["codec.delta.fallback{pipeline=viz}"]; got != 1 {
		t.Errorf("codec.delta.fallback = %d, want 1", got)
	}
	if got := snap.Counters["colza.stage.retries{pipeline=viz}"]; got != 0 {
		t.Errorf("colza.stage.retries = %d, want 0 (a mismatch resend is not a transport retry)", got)
	}
	if blocks, failed := snap.Counters["colza.stage.blocks{pipeline=viz}"], snap.Counters["colza.stage.failed{pipeline=viz}"]; blocks != 2 || failed != 1 {
		t.Errorf("stage.blocks = %d, stage.failed = %d; want 2 and 1", blocks, failed)
	}
}

// failingCodec is a compressing codec (not raw's id) whose Encode always
// fails.
type failingCodec struct{ codec.Raw }

func (failingCodec) ID() uint8 { return codec.FlateID }
func (failingCodec) Encode(dst, src []byte) ([]byte, error) {
	return nil, errors.New("encode failed")
}

// TestStageCodecIsTheNameOnTheHandle: what SetCodec named is what every
// record says, with three things the handle decides on its own — an unknown
// name is refused and changes nothing, a pinned view with different members
// drops the delta bases (and one with the same members keeps them), and a
// codec that fails to encode degrades the block to raw instead of failing the
// stage.
func TestStageCodecIsTheNameOnTheHandle(t *testing.T) {
	var got []stageCodecInfo
	h, reg := stageScript(t, func(call int, recs []stageBatchRec) ([]byte, error) {
		got = append(got, recs[0].CI)
		return stageRespAllLanded, nil
	})
	meta := BlockMeta{Field: "v", Type: "raw"}
	block := func(it byte) []byte { return append(bytes.Repeat([]byte{9}, 255), it) }
	stage := func(it uint64) {
		t.Helper()
		if err := h.Stage(it, meta, block(byte(it))); err != nil {
			t.Fatalf("stage %d: %v", it, err)
		}
	}
	if err := h.SetCodec("zstd"); err == nil {
		t.Fatal("an unregistered codec name was accepted")
	}
	stage(1) // no codec named: raw, and no codec metrics
	if n := reg.Snapshot().Counters["codec.bytes.in{codec=raw}"]; got[0].CodecID != codec.RawID || n != 0 {
		t.Fatalf("no codec named: record %+v, codec.bytes.in{codec=raw} = %d; want raw and no codec metrics", got[0], n)
	}

	if err := h.SetCodec("delta"); err != nil {
		t.Fatal(err)
	}
	view := h.View()
	stage(2) // first delta block: nothing to base on
	stage(3) // based on 2
	grown := MemberView{Epoch: 2, Members: append(append([]ServerInfo(nil), view.Members...), ServerInfo{RPC: "inproc://zz-joined"})}
	h.SetView(grown)
	stage(4) // membership changed: self-contained
	stage(5) // based on 4
	h.SetView(MemberView{Epoch: 3, Members: grown.Members})
	stage(6) // same members under a new epoch: the bases stay
	var based []bool
	for _, ci := range got[1:] {
		if ci.CodecID != codec.DeltaID || !ci.Remember {
			t.Fatalf("record %+v under SetCodec(delta)", ci)
		}
		based = append(based, ci.HasBase)
	}
	if want := []bool{false, true, false, true, true}; !slices.Equal(based, want) {
		t.Fatalf("frames carried a delta base: %v, want %v", based, want)
	}

	h.codec.forced = failingCodec{}
	stage(7)
	if ci := got[len(got)-1]; ci != (stageCodecInfo{Uncompressed: 256}) {
		t.Fatalf("record after a failed encode: %+v, want a plain raw record", ci)
	}
	if n := reg.Snapshot().Counters["codec.bytes.out{codec=raw}"]; n != 256 {
		t.Fatalf("codec.bytes.out{codec=raw} = %d after the degraded block, want 256", n)
	}
}
