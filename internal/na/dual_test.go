package na

import (
	"testing"

	"colza/internal/obs"
)

// connNetwork reports which kind of socket e's cached connection to peer is
// ("unix", "tcp"; "" without one).
func connNetwork(e *DualEndpoint, peer string) string {
	_, tcpPart := SplitAddr(peer)
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.conns[tcpPart]; ok {
		return c.c.RemoteAddr().Network()
	}
	return ""
}

// TestDualPrefersSMOverLoopbackTCP is the regression test for the routing
// bugfix: when a connection file lists both an sm and a tcp address for a
// colocated peer, the sender must dial the peer's unix socket, not
// loopback TCP — and the choice must be counted, once per connection.
func TestDualPrefersSMOverLoopbackTCP(t *testing.T) {
	a, b := dualPair(t)
	reg := obs.NewRegistry()
	a.SetObserver(reg)

	for _, msg := range []string{"hello", "again"} {
		if err := a.Send(b.Addr(), []byte(msg)); err != nil {
			t.Fatalf("send: %v", err)
		}
		from, data, err := b.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if from != a.Addr() || string(data) != msg {
			t.Fatalf("got %q from %q", data, from)
		}
	}
	if got := connNetwork(a, b.Addr()); got != "unix" {
		t.Fatalf("colocated peer dialed over %q, want unix", got)
	}
	// The second send reused the cached connection.
	if got := reg.Counter("na.route.sm_preferred").Value(); got != 1 {
		t.Fatalf("na.route.sm_preferred = %d, want 1", got)
	}
	if got := reg.Counter("na.route.tcp_fallback").Value(); got != 0 {
		t.Fatalf("na.route.tcp_fallback = %d, want 0", got)
	}
	// A plain tcp peer is no route decision at all.
	plain, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := a.Send(plain.Addr(), []byte("plain")); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, _, err := plain.Recv(); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if sm, tcp := reg.Counter("na.route.sm_preferred").Value(), reg.Counter("na.route.tcp_fallback").Value(); sm != 1 || tcp != 0 {
		t.Fatalf("a plain tcp peer moved the route counters: sm_preferred = %d, tcp_fallback = %d", sm, tcp)
	}
}

// TestDualFallsBackToTCP: a peer whose unix socket cannot be dialed — its
// listener is closed, or its address names another host — or that cannot
// be offered an arena, because the dialer's is closed, still gets its
// frames, over the tcp component.
func TestDualFallsBackToTCP(t *testing.T) {
	for name, peerAddr := range map[string]func(t *testing.T, a, b *DualEndpoint) string{
		"socket gone": func(t *testing.T, _, b *DualEndpoint) string {
			if err := b.ul.Close(); err != nil {
				t.Fatal(err)
			}
			return b.Addr()
		},
		"other host": func(_ *testing.T, _, b *DualEndpoint) string {
			smPart, tcpPart := SplitAddr(b.Addr())
			_, name, _ := smHostSocket(smPart)
			return DualAddr("sm://other-host/"+name, tcpPart)
		},
		"arena closed": func(_ *testing.T, a, b *DualEndpoint) string {
			a.file.Close()
			return b.Addr()
		},
	} {
		t.Run(name, func(t *testing.T) {
			a, b := dualPair(t)
			reg := obs.NewRegistry()
			a.SetObserver(reg)
			to := peerAddr(t, a, b)
			if err := a.Send(to, []byte("via wire")); err != nil {
				t.Fatalf("send: %v", err)
			}
			_, data, err := b.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if string(data) != "via wire" {
				t.Fatalf("got %q", data)
			}
			if got := connNetwork(a, to); got != "tcp" {
				t.Fatalf("peer dialed over %q, want tcp", got)
			}
			if sm, tcp := reg.Counter("na.route.sm_preferred").Value(), reg.Counter("na.route.tcp_fallback").Value(); sm != 0 || tcp != 1 {
				t.Fatalf("na.route.sm_preferred = %d, na.route.tcp_fallback = %d, want 0 and 1", sm, tcp)
			}
		})
	}
}

// TestDualFaultPlanCoversSMRoute: chaos hooks see a gathered send as the one
// message it is (the classifier gets head and body joined), on the unix
// socket exactly as over TCP.
func TestDualFaultPlanCoversSMRoute(t *testing.T) {
	a, b := dualPair(t)
	plan := NewFaultPlan(3).SetClassifier(func(data []byte) string { return string(data) })
	plan.Add(FaultRule{Label: "head|dropped", Drop: true})
	a.SetFaultPlan(plan)
	for _, body := range []string{"dropped", "arrives"} {
		if err := a.SendGather(b.Addr(), []byte("head|"), []byte(body)); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	_, data, err := b.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(data) != "head|arrives" {
		t.Fatalf("dropped frame leaked: %q", data)
	}
	if plan.Fired(0) != 1 {
		t.Fatalf("drop rule fired %d times, want 1", plan.Fired(0))
	}
}

// TestPlainTCPAcceptsCompositeAddr: a tcp-only endpoint handed a
// composite address uses the tcp component (mixed deployments where some
// processes are sm-capable and some are not).
func TestPlainTCPAcceptsCompositeAddr(t *testing.T) {
	recv, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen recv: %v", err)
	}
	defer recv.Close()
	send, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen send: %v", err)
	}
	defer send.Close()
	composite := DualAddr("sm://"+smHostID()+"/no-such-socket", recv.Addr())
	if err := send.Send(composite, []byte("tcp leg")); err != nil {
		t.Fatalf("send: %v", err)
	}
	_, data, err := recv.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(data) != "tcp leg" {
		t.Fatalf("got %q", data)
	}
}

func TestSplitAndDualAddr(t *testing.T) {
	sm, tcp := SplitAddr("sm+tcp://host/a/b;1.2.3.4:99")
	if sm != "sm://host/a/b" || tcp != "tcp://1.2.3.4:99" {
		t.Fatalf("split composite: %q / %q", sm, tcp)
	}
	if got := DualAddr(sm, tcp); got != "sm+tcp://host/a/b;1.2.3.4:99" {
		t.Fatalf("recompose: %q", got)
	}
	if sm, tcp := SplitAddr("tcp://x:1"); sm != "" || tcp != "tcp://x:1" {
		t.Fatalf("split plain tcp: %q / %q", sm, tcp)
	}
	if sm, tcp := SplitAddr("sm://h/p"); sm != "sm://h/p" || tcp != "" {
		t.Fatalf("split plain sm: %q / %q", sm, tcp)
	}
	if sm, tcp := SplitAddr("inproc://x"); sm != "" || tcp != "" {
		t.Fatalf("split inproc: %q / %q", sm, tcp)
	}
	if sm, tcp := SplitAddr("sm+tcp://missing-separator"); sm != "" || tcp != "" {
		t.Fatalf("split malformed composite: %q / %q", sm, tcp)
	}
}
