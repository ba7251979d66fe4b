package elastic

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"colza/internal/obs"
)

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(Config{Target: time.Second}, Deps{}); err == nil {
		t.Fatal("NewController accepted nil Members")
	}
	c, err := NewController(Config{Target: time.Second}, Deps{
		Members:  func() []string { return []string{"a"} },
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The default leave/launch actuators must error, not panic.
	if err := c.deps.Leave("a"); err == nil {
		t.Fatal("default Leave actuator did not error")
	}
	if err := c.deps.Launcher.Launch(); err == nil {
		t.Fatal("default Launcher did not error")
	}
}

func TestControllerDoubleStartAndStop(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewController(Config{Target: time.Second}, Deps{
		Members:  func() []string { return []string{"a"} },
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
	c.Stop()
	c.Stop() // idempotent
	if c.Status().Running {
		t.Fatal("status reports running after Stop")
	}
}

// The controller's loop must leave no goroutine behind after Stop — the
// shutdown-leak gate ci.sh runs — and Executed, called from several
// execute handlers at once, never blocks, stopped controller included.
func TestControllerStopLeaksNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		c, err := NewController(Config{Target: time.Second}, Deps{
			Members:  func() []string { return []string{"a", "b"} },
			Registry: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					c.Executed(time.Millisecond, 2)
				}
			}()
		}
		c.Stop()
		wg.Wait()
		c.Executed(time.Millisecond, 2)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after controller Stop", before, runtime.NumGoroutine())
}

func TestScaleDownVictim(t *testing.T) {
	cases := []struct {
		members []string
		self    string
		want    string
	}{
		{[]string{"a", "b", "c"}, "a", "c"},
		{[]string{"a", "b", "c"}, "c", "b"},
		{[]string{"a", "b"}, "b", ""}, // only the leader slot remains
		{[]string{"a"}, "a", ""},
		{nil, "a", ""},
		{[]string{"a", "b", "c"}, "", "c"},
	}
	for _, tc := range cases {
		if got := scaleDownVictim(tc.members, tc.self); got != tc.want {
			t.Errorf("scaleDownVictim(%v, %q) = %q, want %q", tc.members, tc.self, got, tc.want)
		}
	}
}

func TestProcessLauncherErrors(t *testing.T) {
	if err := (&ProcessLauncher{}).Launch(); err == nil {
		t.Fatal("empty binary accepted")
	}
	if err := (&ProcessLauncher{Binary: "/nonexistent/colza-server"}).Launch(); err == nil {
		t.Fatal("nonexistent binary accepted")
	}
	if err := (&ProcessLauncher{Binary: "/bin/true"}).Launch(); err != nil {
		t.Fatalf("launching /bin/true: %v", err)
	}
}

func TestWriteStatusFormat(t *testing.T) {
	st := Status{
		Self:     "tcp://a:1",
		Leader:   true,
		Running:  true,
		Members:  []string{"tcp://a:1", "tcp://b:2"},
		Ceiling:  4,
		TargetMS: 100,
		Counters: map[string]int64{"elastic.scaleups": 2, "elastic.holds": 7},
		Gauges:   map[string]int64{"elastic.leader": 1},
		Verdicts: []Verdict{
			{Seq: 0, AtMS: 100, Action: "scale-up", Reason: "over-target", Servers: 1, ExecMS: 250, Actuated: true},
		},
	}
	var sb strings.Builder
	WriteStatus(&sb, st)
	out := sb.String()
	for _, want := range []string{
		"self    tcp://a:1",
		"leader  true  running true",
		"members 2  ceiling 4  target 100.0ms\n",
		"counter elastic.holds 7",
		"counter elastic.scaleups 2",
		"gauge elastic.leader 1",
		"verdict   0 at=100ms scale-up (over-target) servers=1 exec=250.0ms actuated=true",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("status output missing %q:\n%s", want, out)
		}
	}
	// Counters must be sorted for stable output.
	if strings.Index(out, "elastic.holds") > strings.Index(out, "elastic.scaleups") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}

func TestStatusJSONRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := NewController(Config{Target: 100 * time.Millisecond}, Deps{
		Members:  func() []string { return []string{"m00"} },
		Self:     "m00",
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Tick(50*time.Millisecond, 1)
	raw, err := c.StatusJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"self":"m00"`, `"leader":true`, `"elastic.holds"`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("status JSON missing %s: %s", want, raw)
		}
	}
}

// The verdict ring must stay bounded at historyCap, keeping the newest.
func TestVerdictHistoryBounded(t *testing.T) {
	c, err := NewController(Config{Target: time.Hour}, Deps{
		Members:  func() []string { return []string{"m00", "m01"} },
		Self:     "m00",
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < historyCap+1; i++ {
		c.Tick(time.Millisecond, 2)
	}
	st := c.Status()
	if len(st.Verdicts) != historyCap {
		t.Fatalf("history length %d, want %d", len(st.Verdicts), historyCap)
	}
	if st.Verdicts[0].Seq != 1 || st.Verdicts[historyCap-1].Seq != historyCap {
		t.Fatalf("ring kept wrong tail: first seq %d, last %d", st.Verdicts[0].Seq, st.Verdicts[historyCap-1].Seq)
	}
}

// feedUntil hands c one sample every millisecond until done reports
// true: Executed drops what arrives while the loop is busy or not yet
// waiting, as a server's execute hook would.
func feedUntil(t *testing.T, c *Controller, exec time.Duration, servers int, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !done(); {
		if time.Now().After(deadline) {
			t.Fatalf("loop never reached the expected state; status: %+v", c.Status())
		}
		c.Executed(exec, servers)
		time.Sleep(time.Millisecond)
	}
}

// The live loop end to end: over-target executes handed to Executed reach
// a Tick, which scales up through the launcher.
func TestSensingLoopScalesUp(t *testing.T) {
	var mu sync.Mutex
	members := []string{"m00"}
	size := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(members)
	}
	reg := obs.NewRegistry()
	c, err := NewController(Config{
		Target: 50 * time.Millisecond, Ceiling: 2, LaunchRetries: 1, JoinTimeout: time.Second,
	}, Deps{
		Self: "m00",
		Members: func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), members...)
		},
		Launcher: LauncherFunc(func() error {
			mu.Lock()
			defer mu.Unlock()
			members = append(members, fmt.Sprintf("m%02d", len(members)))
			return nil
		}),
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	feedUntil(t, c, 500*time.Millisecond, 1, func() bool { return reg.Counter("elastic.scaleups").Value() == 1 })
	if n := size(); n != 2 {
		t.Fatalf("scaleup counted but members=%d", n)
	}
}

// Executes keep arriving while a scale-down waits for its victim to leave
// the view. The loop is inside that Tick, so each is dropped: the leave
// RPC is sent once, and the only verdict recorded is the scale-down's.
func TestSensingLoopDropsSamplesDuringLeave(t *testing.T) {
	var mu sync.Mutex
	members := []string{"m00", "m01", "m02"}
	var leaves []string
	reg := obs.NewRegistry()
	c, err := NewController(Config{Target: 100 * time.Millisecond, JoinTimeout: 10 * time.Second}, Deps{
		Self: "m00",
		Members: func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), members...)
		},
		Leave: func(addr string) error {
			mu.Lock()
			defer mu.Unlock()
			leaves = append(leaves, addr)
			return nil
		},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	leaveSent := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(leaves) > 0
	}
	feedUntil(t, c, 10*time.Millisecond, 3, leaveSent)
	// The victim is still in the view, so the Tick is still waiting.
	for i := 0; i < 50; i++ {
		c.Executed(10*time.Millisecond, 3)
	}
	mu.Lock()
	members = members[:2]
	mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); reg.Counter("elastic.scaledowns").Value() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("scale-down never settled; status: %+v", c.Status())
		}
	}
	c.Stop()
	mu.Lock()
	sent := append([]string(nil), leaves...)
	mu.Unlock()
	if len(sent) != 1 || sent[0] != "m02" {
		t.Fatalf("leave RPCs %v, want exactly one, to m02", sent)
	}
	if vs := c.Status().Verdicts; len(vs) != 1 || vs[0].Action != "scale-down" || !vs[0].Actuated {
		t.Fatalf("verdicts %+v, want the one actuated scale-down", vs)
	}
}
