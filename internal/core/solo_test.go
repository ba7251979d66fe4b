package core

import (
	"bytes"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/mercury"
	"colza/internal/na"
	"colza/internal/obs"
)

// TestSoloHandleLifecycle: the single-server pipeline handle works
// without any view agreement and pins all data to one server.
func TestSoloHandleLifecycle(t *testing.T) {
	d := deploy(t, 2)
	d.createEverywhere(t, "solo")
	h := d.client.SoloHandle("solo", d.servers[1].Addr())
	h.SetTimeout(2 * time.Second)
	if h.Server() != d.servers[1].Addr() {
		t.Fatal("server address lost")
	}
	if err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if err := h.Stage(1, BlockMeta{BlockID: b}, bytes.Repeat([]byte{7}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary["size"] != 1 {
		t.Fatalf("solo pipeline saw comm size %v, want 1", res.Summary["size"])
	}
	if res.Summary["total_bytes"] != 150 {
		t.Fatalf("total = %v, want 150", res.Summary["total_bytes"])
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}

	// Second iteration exercises comm id recycling on the solo path.
	if err := h.Activate(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(2); err != nil {
		t.Fatal(err)
	}
}

// TestSoloIterationsLeaveActiveGaugeAtZero: a solo activation counts the
// iteration into the colza.active.iterations gauge its deactivate takes
// back out, as a commit does.
func TestSoloIterationsLeaveActiveGaugeAtZero(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "solo")
	h := d.client.SoloHandle("solo", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	gauge := func() int64 { return d.servers[0].Obs.Snapshot().Gauges["colza.active.iterations"].Value }
	for it := uint64(1); it <= 2; it++ {
		if err := h.Activate(it); err != nil {
			t.Fatal(err)
		}
		if g := gauge(); g != 1 {
			t.Fatalf("iteration %d active: gauge = %d, want 1", it, g)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatal(err)
		}
	}
	if g := gauge(); g != 0 {
		t.Fatalf("after two solo iterations: gauge = %d, want 0", g)
	}
}

// TestSoloHandleBusyConflict: a solo activate on a pipeline already held
// by a distributed iteration is refused.
func TestSoloHandleBusyConflict(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "viz")
	dist := d.client.Handle("viz", d.servers[0].Addr())
	dist.SetTimeout(2 * time.Second)
	if _, err := dist.Activate(1); err != nil {
		t.Fatal(err)
	}
	solo := d.client.SoloHandle("viz", d.servers[0].Addr())
	solo.SetTimeout(time.Second)
	if err := solo.Activate(5); err == nil {
		t.Fatal("solo activate on busy pipeline accepted")
	}
	if err := dist.Deactivate(1); err != nil {
		t.Fatal(err)
	}
	// Free now.
	if err := solo.Activate(5); err != nil {
		t.Fatal(err)
	}
	solo.Deactivate(5)
}

// TestSoloHandleAsyncVariants exercises the non-blocking solo API.
func TestSoloHandleAsyncVariants(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "solo")
	h := d.client.SoloHandle("solo", d.servers[0].Addr())
	h.SetTimeout(2 * time.Second)
	if _, err := h.NBActivate(1).Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.NBStage(1, BlockMeta{}, []byte("abc")).Wait(); err != nil {
		t.Fatal(err)
	}
	res, err := h.NBExecute(1).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Summary["total_bytes"] != 3 {
		t.Fatalf("async solo execute = %+v", res)
	}
	if _, err := h.NBDeactivate(1).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := h.Activate(99); err != nil {
		t.Fatal(err)
	}
	if err := h.Deactivate(99); err != nil {
		t.Fatal(err)
	}
}

// TestSoloHandleRetriesDroppedStage: a solo handle stages through the
// distributed handle's send path, so a stage request the fabric drops is
// retried under the stage retry policy (and counted), not handed back to the
// caller as a timeout.
func TestSoloHandleRetriesDroppedStage(t *testing.T) {
	d := deploy(t, 1)
	d.createEverywhere(t, "solo")
	reg := obs.NewRegistry()
	d.client.SetObserver(reg)
	h := d.client.SoloHandle("solo", d.servers[0].Addr())
	h.SetTimeout(200 * time.Millisecond)
	if err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	plan := na.NewFaultPlan(1).SetClassifier(func(frame []byte) string {
		name, _ := mercury.RPCNameOf(frame)
		return name
	})
	plan.Add(na.FaultRule{Label: margo.ProviderRPCName(ProviderID, "stage"), Nth: 1, Drop: true})
	d.net.SetFaultPlan(plan)
	defer d.net.SetFaultPlan(nil)
	if err := h.Stage(1, BlockMeta{Field: "v", Type: "raw"}, []byte("abcd")); err != nil {
		t.Fatalf("stage after a dropped request: %v", err)
	}
	if plan.Fired(0) != 1 {
		t.Fatalf("the stage request was never dropped (%s)", plan)
	}
	if got := reg.Snapshot().Counters["colza.stage.retries{pipeline=solo}"]; got != 1 {
		t.Errorf("colza.stage.retries = %d, want 1", got)
	}
	res, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary["total_bytes"] != 4 {
		t.Fatalf("total = %v, want 4", res.Summary["total_bytes"])
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}
}
