package ssg

import (
	"fmt"
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/na"
)

// fastCfg gossips quickly so convergence tests stay short.
func fastCfg(seed int64) Config {
	return Config{
		GossipPeriod:   5 * time.Millisecond,
		PingTimeout:    4 * time.Millisecond,
		SuspectPeriods: 4,
		Seed:           seed,
	}
}

type node struct {
	mi *margo.Instance
	g  *Group
}

// cluster builds one Create node and n-1 Join nodes on a shared network.
func cluster(t *testing.T, net *na.InprocNetwork, n int) []*node {
	t.Helper()
	nodes := make([]*node, 0, n)
	for i := 0; i < n; i++ {
		ep, err := net.Listen(fmt.Sprintf("ssg-node-%d-%s", i, t.Name()))
		if err != nil {
			t.Fatal(err)
		}
		mi := margo.NewInstance(ep)
		var g *Group
		if i == 0 {
			g, err = Create(mi, "grp", fastCfg(int64(i+1)))
		} else {
			g, err = Join(mi, "grp", nodes[0].mi.Addr(), fastCfg(int64(i+1)))
		}
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &node{mi: mi, g: g})
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.mi.Finalize()
		}
	})
	return nodes
}

// waitConverged polls until every node's view equals want (sorted) or the
// deadline passes.
func waitConverged(t *testing.T, nodes []*node, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ok := true
		for _, nd := range nodes {
			if len(nd.g.Members()) != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i, nd := range nodes {
		t.Logf("node %d view: %v", i, nd.g.Members())
	}
	t.Fatalf("views did not converge to %d members within %v", want, timeout)
}

func TestCreateSingleton(t *testing.T) {
	net := na.NewInprocNetwork()
	nodes := cluster(t, net, 1)
	m := nodes[0].g.Members()
	if len(m) != 1 || m[0] != nodes[0].mi.Addr() {
		t.Fatalf("members = %v", m)
	}
}

func TestJoinPropagatesToAllMembers(t *testing.T) {
	net := na.NewInprocNetwork()
	nodes := cluster(t, net, 5)
	waitConverged(t, nodes, 5, 5*time.Second)
}

func TestJoinViaNonFounderBootstrap(t *testing.T) {
	net := na.NewInprocNetwork()
	nodes := cluster(t, net, 3)
	waitConverged(t, nodes, 3, 5*time.Second)
	// New node bootstraps via node 2, not the founder.
	ep, _ := net.Listen("late-joiner")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	g, err := Join(mi, "grp", nodes[2].mi.Addr(), fastCfg(99))
	if err != nil {
		t.Fatal(err)
	}
	all := append(nodes, &node{mi: mi, g: g})
	waitConverged(t, all, 4, 5*time.Second)
}

func TestGracefulLeave(t *testing.T) {
	net := na.NewInprocNetwork()
	nodes := cluster(t, net, 4)
	waitConverged(t, nodes, 4, 5*time.Second)
	nodes[3].g.Leave()
	waitConverged(t, nodes[:3], 3, 5*time.Second)
}

func TestCrashDetectedBySWIM(t *testing.T) {
	net := na.NewInprocNetwork()
	nodes := cluster(t, net, 4)
	waitConverged(t, nodes, 4, 5*time.Second)
	// Crash node 3: endpoint dies, no leave announcement.
	nodes[3].g.Shutdown()
	nodes[3].mi.Finalize()
	waitConverged(t, nodes[:3], 3, 10*time.Second)
}

func TestSuspectRefutation(t *testing.T) {
	net := na.NewInprocNetwork()
	nodes := cluster(t, net, 3)
	waitConverged(t, nodes, 3, 5*time.Second)
	// Temporarily cut node 2 from 0 and 1; it should be suspected but then
	// refute after the partition heals and stay (or rejoin) in the view.
	a2 := nodes[2].mi.Addr()
	cut := na.NewFaultPlan(1)
	for _, a := range []string{nodes[0].mi.Addr(), nodes[1].mi.Addr()} {
		cut.Add(na.FaultRule{From: a, To: a2, Drop: true}).Add(na.FaultRule{From: a2, To: a, Drop: true})
	}
	net.SetFaultPlan(cut)
	time.Sleep(15 * time.Millisecond) // shorter than suspect expiry
	net.SetFaultPlan(nil)
	waitConverged(t, nodes, 3, 10*time.Second)
}

func TestMembersSorted(t *testing.T) {
	net := na.NewInprocNetwork()
	nodes := cluster(t, net, 4)
	waitConverged(t, nodes, 4, 5*time.Second)
	m := nodes[1].g.Members()
	for i := 1; i < len(m); i++ {
		if m[i-1] >= m[i] {
			t.Fatalf("members not sorted: %v", m)
		}
	}
}

func TestJoinUnreachableBootstrapFails(t *testing.T) {
	net := na.NewInprocNetwork()
	ep, _ := net.Listen("lonely")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	if _, err := Join(mi, "grp", "inproc://nobody-home", fastCfg(1)); err == nil {
		t.Fatal("expected join failure")
	}
}

func TestLeaveIdempotent(t *testing.T) {
	net := na.NewInprocNetwork()
	nodes := cluster(t, net, 2)
	nodes[1].g.Leave()
	nodes[1].g.Leave()
	nodes[1].g.Shutdown()
}
