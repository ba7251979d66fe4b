package elastic

import (
	"testing"
	"time"

	"colza/internal/autoscale"
	"colza/internal/bench"
	"colza/internal/catalyst"
	"colza/internal/obs"
)

// The controller wired through CoreDeps against a live in-process
// cluster: a scripted over-target batch launches a real server, the
// join is observed through SSG, and ProvisionFromDefs replicates the
// leader's pipeline definition onto the newcomer; a scripted
// under-target batch then releases it through the admin leave RPC.
func TestCoreDepsLiveScaleUpAndDown(t *testing.T) {
	cl, err := bench.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	if err := cl.CreatePipelineEverywhere("viz", catalyst.StatsPipelineType,
		map[string]interface{}{"field": "value"}); err != nil {
		t.Fatal(err)
	}

	self := cl.Servers[0].Addr()
	reg := obs.NewRegistry()
	deps := CoreDeps(self, cl.Servers[0].Group.Members, cl.Admin,
		LauncherFunc(func() error { _, err := cl.AddServer(); return err }), reg)
	c, err := NewController(Config{
		Target: 100 * time.Millisecond, Floor: 1, Ceiling: 2, LaunchRetries: 1,
		JoinTimeout: 30 * time.Second,
	}, deps)
	if err != nil {
		t.Fatal(err)
	}

	// One over-target batch: the controller must launch, wait for the
	// join, and provision the newcomer with the leader's pipeline.
	v := c.Tick([]autoscale.Sample{{Exec: 500 * time.Millisecond}})
	if v.Action != "scale-up" || !v.Actuated {
		t.Fatalf("over-target verdict: %+v", v)
	}
	if err := cl.WaitSize(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	newcomer := cl.Servers[1].Addr()
	names, err := cl.Admin.ListPipelines(newcomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "viz" {
		t.Fatalf("newcomer pipelines = %v, want [viz]", names)
	}
	if pe := reg.Counter("elastic.provision_errors").Value(); pe != 0 {
		t.Fatalf("provision_errors=%d", pe)
	}

	// The first under-target batch is the cooldown's; the second must
	// release the newcomer through the admin leave RPC, and the verdict
	// returns only once the leader's view no longer shows it.
	under := []autoscale.Sample{{Exec: 10 * time.Millisecond}}
	if v = c.Tick(under); v.Reason != "cooldown" {
		t.Fatalf("post-scale-up verdict: %+v", v)
	}
	if v = c.Tick(under); v.Action != "scale-down" || !v.Actuated {
		t.Fatalf("under-target verdict: %+v", v)
	}
	if n := len(cl.Servers[0].Group.Members()); n != 1 {
		t.Fatalf("leader's view holds %d members after an actuated scale-down, want 1", n)
	}
	up, down := reg.Counter("elastic.scaleups").Value(), reg.Counter("elastic.scaledowns").Value()
	att, lerr := reg.Counter("elastic.launch_attempts").Value(), reg.Counter("elastic.launch_errors").Value()
	if up != 1 || down != 1 {
		t.Fatalf("scaleups=%d scaledowns=%d", up, down)
	}
	if att != lerr+up {
		t.Fatalf("conservation violated: attempts=%d errors=%d scaleups=%d", att, lerr, up)
	}

	// Sensing through the real metrics_json RPC: the source must see the
	// surviving member's execute spans (none yet — no stage traffic), so
	// a live Poll round reports no samples and no errors.
	src := newMetricsSource(deps.Snapshot)
	batch, errs := src.Poll(cl.Servers[0].Group.Members())
	if errs != 0 || len(batch) != 0 {
		t.Fatalf("live poll: batch=%v errs=%d", batch, errs)
	}
}
