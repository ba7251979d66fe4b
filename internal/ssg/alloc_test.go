package ssg

import (
	"testing"
	"time"

	"colza/internal/margo"
	"colza/internal/na"
)

// ceilGossipRoundAllocs bounds one SWIM probe that finds nothing to gossip:
// the ping, the ack and everything between, both sides. Measured 0; 19
// while the messages were JSON, every round collected its peers and
// updates into new lists and composed the ping's RPC name, and in-process
// frames were exact-size copies.
const ceilGossipRoundAllocs = 2.0

// TestGossipRoundAllocsCeiling: a gossip round whose ping is answered, with
// no update queued on either side, allocates at most ceilGossipRoundAllocs.
// The groups gossip once an hour, so only the rounds the test runs happen.
func TestGossipRoundAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocs/op ceilings are measured without the race detector")
	}
	net := na.NewInprocNetwork()
	cfg := Config{GossipPeriod: time.Hour, PingTimeout: time.Second, Seed: 1}
	var groups []*Group
	for i, name := range []string{"alloc-a", "alloc-b"} {
		ep, err := net.Listen(name)
		if err != nil {
			t.Fatal(err)
		}
		mi := margo.NewInstance(ep)
		defer mi.Finalize()
		var g *Group
		if i == 0 {
			g, err = Create(mi, "grp", cfg)
		} else {
			g, err = Join(mi, "grp", groups[0].self(), cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		groups = append(groups, g)
	}
	// Spend the join's gossip budget, then warm the pools and goroutines.
	for i := 0; i < 100; i++ {
		groups[0].gossipRound()
		groups[1].gossipRound()
	}
	for _, g := range groups {
		g.mu.Lock()
		queued := len(g.queue)
		g.mu.Unlock()
		if queued != 0 || len(g.Members()) != 2 {
			t.Fatalf("%s: %d updates queued, members %v", g.self(), queued, g.Members())
		}
	}
	allocs := testing.AllocsPerRun(200, groups[1].gossipRound)
	t.Logf("gossip round: %.1f allocs/op (ceiling %.1f)", allocs, ceilGossipRoundAllocs)
	if allocs > ceilGossipRoundAllocs {
		t.Errorf("gossip round allocs/op = %.1f, ceiling %.1f", allocs, ceilGossipRoundAllocs)
	}
}
