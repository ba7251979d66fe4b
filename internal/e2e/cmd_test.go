package e2e

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/margo"
	"colza/internal/na"
	"colza/internal/sim"
)

// buildBinaries compiles the CLI tools once into a temp dir.
func buildBinaries(t *testing.T) (server, ctl string) {
	t.Helper()
	dir := t.TempDir()
	server = filepath.Join(dir, "colza-server")
	ctl = filepath.Join(dir, "colza-ctl")
	for _, b := range []struct{ out, pkg string }{
		{server, "colza/cmd/colza-server"},
		{ctl, "colza/cmd/colza-ctl"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", b.pkg, err, out)
		}
	}
	return server, ctl
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// TestCommandLineDeployment drives the real binaries: two colza-server
// processes (-sm and -sm=false, one TCP listener each) bootstrapped through
// the connection file, administered with colza-ctl, and used by an in-test
// client for one in situ iteration.
func TestCommandLineDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	serverBin, ctlBin := buildBinaries(t)
	dir := t.TempDir()
	connFile := filepath.Join(dir, "colza.addr")

	startServer := func(name string, flags ...string) *exec.Cmd {
		cmd := exec.Command(serverBin, append([]string{
			"-listen", "127.0.0.1:0",
			"-connfile", connFile, "-gossip-ms", "20"}, flags...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
		return cmd
	}

	first := startServer("first")
	// Wait for the connection file to appear.
	deadline := time.Now().Add(20 * time.Second)
	var target string
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(connFile); err == nil && len(data) > 0 {
			target = strings.TrimSpace(string(data))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if target == "" {
		t.Fatal("connection file never appeared")
	}
	second := startServer("second", "-sm=false")

	ctl := func(args ...string) string {
		out, err := exec.Command(ctlBin, append([]string{"-connfile", connFile}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("colza-ctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Wait until both servers appear in the membership.
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Count(ctl("members"), "rank ") == 2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	members := ctl("members")
	if strings.Count(members, "rank ") != 2 {
		t.Fatalf("membership never reached 2:\n%s", members)
	}
	for _, cmd := range []*exec.Cmd{first, second} {
		if n := tcpListeners(t, cmd.Process.Pid); n != 1 {
			t.Errorf("%v listens on %d TCP sockets, want 1", cmd.Args[1:], n)
		}
	}

	// Create the pipeline everywhere through the admin tool.
	ctl("create-all", "viz", catalyst.IsoPipelineType,
		`{"field":"value","isovalues":[8],"scalar_range":[0,32],"width":48,"height":48}`)
	if !strings.Contains(ctl("list"), "viz") {
		t.Fatal("pipeline not listed after create-all")
	}

	// One in situ iteration from an in-test client over TCP.
	ep, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	h := client.Handle("viz", target)
	h.SetTimeout(30 * time.Second)
	if err := h.SetCodec("delta"); err != nil {
		t.Fatal(err)
	}
	mb := sim.DefaultMandelbulb([3]int{12, 12, 8}, 4)
	if _, err := h.Activate(1); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < mb.Blocks; b++ {
		blk := sim.MandelbulbBlock(mb, b, 1)
		if err := h.Stage(1, sim.MandelbulbMeta(mb, b), blk.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	results, err := h.Execute(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if err := h.Deactivate(1); err != nil {
		t.Fatal(err)
	}

	// The iteration must be visible through the observability surface:
	// `colza-ctl metrics` prints non-zero RPC counters and stage-latency
	// percentiles from the server's registry.
	metrics := ctl("metrics")
	assertMetricLine(t, metrics, "counter mercury.serve.count{rpc=colza::stage}")
	assertMetricLine(t, metrics, "counter colza.staged.blocks{pipeline=viz}")
	assertMetricLine(t, metrics, "counter colza.commit.count{pipeline=viz}")
	if !strings.Contains(metrics, "hist span.srv.stage{pipeline=viz}") ||
		!strings.Contains(metrics, "p99=") {
		t.Fatalf("metrics lack stage span percentiles:\n%s", metrics)
	}
	if !strings.Contains(metrics, "hist span.srv.execute{pipeline=viz}") {
		t.Fatalf("metrics lack execute span histogram:\n%s", metrics)
	}
	// The failure counters of the state-durability layer must be exported
	// even when zero (they are pre-touched at registration): a clean dump
	// proves the absence of silent migrate/checkpoint/respond failures
	// rather than the absence of instrumentation.
	assertMetricPresent(t, metrics, "counter core.migrate.errors")
	assertMetricPresent(t, metrics, "counter core.state.checkpoint.errors")
	assertMetricPresent(t, metrics, "counter mercury.respond.send_errors")
	// The compressed stage path must be visible in the live registry: the
	// client staged through the delta codec, so the server counted both
	// wire bytes in and decoded bytes out for it. The raw counters are
	// pre-touched at SetObserver time and exported at zero.
	assertMetricLine(t, metrics, "counter codec.bytes.in{codec=delta}")
	assertMetricLine(t, metrics, "counter codec.bytes.out{codec=delta}")
	assertMetricPresent(t, metrics, "counter codec.bytes.in{codec=raw}")

	// `colza-ctl trace` emits the span records as JSON lines.
	var spanNames []string
	for _, line := range strings.Split(strings.TrimSpace(ctl("trace")), "\n") {
		var rec struct {
			Name      string `json:"name"`
			Iteration uint64 `json:"iteration"`
			DurNS     int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if rec.Iteration != 1 {
			t.Fatalf("trace span %q on iteration %d, want 1", rec.Name, rec.Iteration)
		}
		spanNames = append(spanNames, rec.Name)
	}
	for _, want := range []string{"srv.stage", "srv.execute", "srv.deactivate"} {
		found := false
		for _, n := range spanNames {
			found = found || n == want
		}
		if !found {
			t.Fatalf("trace has no %q span (got %v)", want, spanNames)
		}
	}

	// Scale down through the admin tool: one server leaves gracefully.
	view, err := client.FetchView(target, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var leaver string
	for _, m := range view.Members {
		if m != target {
			leaver = m
		}
	}
	out, err := exec.Command(ctlBin, "-server", leaver, "leave").CombinedOutput()
	if err != nil {
		t.Fatalf("leave: %v\n%s", err, out)
	}
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Count(ctl("members"), "rank ") == 1 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server never left:\n%s", ctl("members"))
}

// tcpListeners counts the LISTEN rows (state 0A) of /proc/<pid>/net/tcp
// whose socket inode is among the open files of process pid.
func tcpListeners(t *testing.T, pid int) (n int) {
	t.Helper()
	dir := fmt.Sprintf("/proc/%d/", pid)
	table, err := os.ReadFile(dir + "net/tcp")
	fds, fdErr := os.ReadDir(dir + "fd")
	if err = errors.Join(err, fdErr); err != nil {
		t.Fatal(err)
	}
	listening := map[string]bool{}
	for _, row := range strings.Split(string(table), "\n")[1:] {
		if f := strings.Fields(row); len(f) > 9 && f[3] == "0A" {
			listening["socket:["+f[9]+"]"] = true
		}
	}
	for _, fd := range fds {
		if link, _ := os.Readlink(dir + "fd/" + fd.Name()); listening[link] {
			n++
		}
	}
	return n
}

// assertMetricLine asserts the text dump contains the given counter line
// with a strictly positive value.
func assertMetricLine(t *testing.T, metrics, prefix string) {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if !strings.HasPrefix(line, prefix+" ") {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64); err == nil && v > 0 {
			return
		}
		t.Fatalf("metric %q present but not positive: %q", prefix, line)
	}
	t.Fatalf("metrics lack %q:\n%s", prefix, metrics)
}

// assertMetricPresent asserts the text dump exports the metric line at
// all, whatever its value — for error counters whose healthy value is 0.
func assertMetricPresent(t *testing.T, metrics, prefix string) {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			return
		}
	}
	t.Fatalf("metrics lack %q:\n%s", prefix, metrics)
}

// TestElasticCommandLine runs a real colza-server with -elastic and reads
// the controller back through `colza-ctl elastic status` and the metrics
// dump: the live elastic.* counters must be exported (pre-touched at
// zero), the single daemon must report itself the leader, and a plain
// server joining the same group must answer elastic status with the
// no-controller error.
func TestElasticCommandLine(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	serverBin, ctlBin := buildBinaries(t)
	dir := t.TempDir()
	connFile := filepath.Join(dir, "colza.addr")

	startServer := func(name string, extra ...string) {
		args := append([]string{
			"-listen", "127.0.0.1:0",
			"-connfile", connFile, "-gossip-ms", "20"}, extra...)
		cmd := exec.Command(serverBin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting %s: %v", name, err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
	}

	// A high ceiling would let the controller launch daemons on its own
	// (no iteration executes, so it never will); the idle load keeps the
	// deployment static while we read the control plane.
	startServer("elastic-leader", "-elastic", "-elastic-target", "50ms",
		"-elastic-ceiling", "2")
	deadline := time.Now().Add(20 * time.Second)
	var target string
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(connFile); err == nil && len(data) > 0 {
			target = strings.TrimSpace(string(data))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if target == "" {
		t.Fatal("connection file never appeared")
	}

	ctl := func(args ...string) string {
		out, err := exec.Command(ctlBin, append([]string{"-connfile", connFile}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("colza-ctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// A status query evaluates leadership itself, so the idle leader's
	// gauge is up once the daemon answers.
	var status string
	deadline = time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		status = ctl("elastic", "status")
		if strings.Contains(status, "gauge elastic.leader 1") {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, want := range []string{
		"self    " + target,
		"leader  true  running true",
		"ceiling 2  target 50.0ms",
		"counter elastic.scaleups 0",
		"counter elastic.scaledowns 0",
		"counter elastic.launch_attempts 0",
		"counter elastic.launch_errors 0",
		"counter elastic.takeovers 0",
		"gauge elastic.leader 1",
		"gauge elastic.servers 1",
	} {
		if !strings.Contains(status, want) {
			t.Fatalf("elastic status lacks %q:\n%s", want, status)
		}
	}

	// The controller's instruments live in the same registry the metrics
	// dump exports: every elastic.* counter is visible at zero.
	metrics := ctl("metrics")
	for _, name := range []string{
		"counter elastic.scaleups", "counter elastic.scaledowns",
		"counter elastic.launch_attempts", "counter elastic.launch_errors",
		"counter elastic.holds", "counter elastic.takeovers",
	} {
		assertMetricPresent(t, metrics, name)
	}

	// A plain daemon in the same group has no controller: elastic status
	// against it must fail with the dedicated error.
	startServer("plain-follower")
	deadline = time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Count(ctl("members"), "rank ") == 2 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	members := ctl("members")
	if strings.Count(members, "rank ") != 2 {
		t.Fatalf("membership never reached 2:\n%s", members)
	}
	var follower string
	for _, line := range strings.Split(members, "\n") {
		if strings.HasPrefix(line, "rank ") && !strings.HasSuffix(line, "rpc="+target) {
			follower = strings.TrimPrefix(strings.Fields(line)[2], "rpc=")
		}
	}
	if follower == "" {
		t.Fatalf("no follower in members:\n%s", members)
	}
	out, err := exec.Command(ctlBin, "-server", follower, "elastic", "status").CombinedOutput()
	if err == nil {
		t.Fatalf("elastic status against a plain server succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "no elastic controller") {
		t.Fatalf("unexpected error output: %s", out)
	}
}

// The controller's ProcessLauncher re-execs colza-server with the parent's
// flags cloned; the launched daemon must itself carry a controller so
// leadership can hand off to it. Regression: boolean flags passed as two
// argv tokens ("-elastic", then a bare value) made the flag package stop
// parsing and silently drop -elastic from relaunched daemons.
func TestElasticProcessRelaunchCarriesController(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	serverBin, ctlBin := buildBinaries(t)
	dir := t.TempDir()
	connFile := filepath.Join(dir, "colza.addr")

	// Target 2ms: any real iso execute overshoots it, so the first sensed
	// execute triggers a launch. The ceiling of 2 keeps it to one.
	cmd := exec.Command(serverBin,
		"-listen", "127.0.0.1:0",
		"-connfile", connFile, "-gossip-ms", "20",
		"-elastic", "-elastic-target", "2ms",
		"-elastic-ceiling", "2")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	var target string
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(connFile); err == nil && len(data) > 0 {
			target = strings.TrimSpace(string(data))
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if target == "" {
		t.Fatal("connection file never appeared")
	}
	ctl := func(args ...string) string {
		out, err := exec.Command(ctlBin, append([]string{"-connfile", connFile}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("colza-ctl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	ctl("create-all", "viz", catalyst.IsoPipelineType,
		`{"field":"value","isovalues":[8],"scalar_range":[0,32],"width":48,"height":48}`)

	// Drive iterations until the controller's sensed execute launches a
	// second daemon (the launched process joins via the conn file).
	ep, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	h := client.Handle("viz", target)
	h.SetTimeout(30 * time.Second)
	mb := sim.DefaultMandelbulb([3]int{16, 16, 12}, 4)
	grown := false
	for it := uint64(1); it <= 40 && !grown; it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatalf("iter %d activate: %v", it, err)
		}
		for b := 0; b < mb.Blocks; b++ {
			blk := sim.MandelbulbBlock(mb, b, it)
			if err := h.Stage(it, sim.MandelbulbMeta(mb, b), blk.Encode()); err != nil {
				t.Fatalf("iter %d stage: %v", it, err)
			}
		}
		if _, err := h.Execute(it); err != nil {
			t.Fatalf("iter %d execute: %v", it, err)
		}
		if err := h.Deactivate(it); err != nil {
			t.Fatalf("iter %d deactivate: %v", it, err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if strings.Count(ctl("members"), "rank ") == 2 {
				grown = true
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !grown {
		t.Fatalf("controller never launched a second daemon:\n%s", ctl("elastic", "status"))
	}

	// The launched daemon inherits this test's stderr pipe; ask it to
	// leave and wait for it to exit, or go test stalls on open I/O.
	var newcomer string
	for _, line := range strings.Split(ctl("members"), "\n") {
		if strings.HasPrefix(line, "rank ") && !strings.HasSuffix(line, "rpc="+target) {
			newcomer = strings.TrimPrefix(strings.Fields(line)[2], "rpc=")
		}
	}
	if newcomer == "" {
		t.Fatal("no newcomer in members output")
	}
	t.Cleanup(func() {
		exec.Command(ctlBin, "-server", newcomer, "leave").Run()
		deadline := time.Now().Add(20 * time.Second)
		for time.Now().Before(deadline) {
			if exec.Command(ctlBin, "-server", newcomer, "elastic", "status").Run() != nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	})

	// The original daemon actuated exactly one launch. The membership can
	// grow before its Tick finishes provisioning the newcomer, so give the
	// counter a moment to land.
	var status []byte
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, err = exec.Command(ctlBin, "-server", target, "elastic", "status").CombinedOutput()
		if err == nil && strings.Contains(string(status), "counter elastic.scaleups 1") {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, want := range []string{"counter elastic.scaleups 1", "counter elastic.launch_errors 0"} {
		if !strings.Contains(string(status), want) {
			t.Fatalf("original status lacks %q:\n%s", want, status)
		}
	}

	// ...and the daemon it exec'd runs its own controller (the handoff
	// candidate).
	status, err = exec.Command(ctlBin, "-server", newcomer, "elastic", "status").CombinedOutput()
	if err != nil {
		t.Fatalf("relaunched daemon has no controller: %v\n%s", err, status)
	}
	if !strings.Contains(string(status), "running true") {
		t.Fatalf("relaunched daemon's controller not running:\n%s", status)
	}
}

// jsonValid double-checks the pipeline config snippets used in docs parse.
func TestDocumentedConfigsParse(t *testing.T) {
	var iso catalyst.IsoConfig
	if err := json.Unmarshal([]byte(`{"field":"value","isovalues":[8],"scalar_range":[0,32]}`), &iso); err != nil {
		t.Fatal(err)
	}
	if iso.Field != "value" || iso.IsoValues[0] != 8 {
		t.Fatalf("parsed %+v", iso)
	}
}

// killedClientMB is the dataset of TestCommandLineClientKilledMidStage and
// its helper process: the helper stages blocks [0, Blocks/2) of iteration
// 1, the surviving rank all of them.
var killedClientMB = sim.DefaultMandelbulb([3]int{16, 16, 8}, 8)

// TestCommandLineClientKilledMidStage: a client process staging over sm —
// the daemon reads its blocks out of the client's arena — is SIGKILLed in
// the middle of an iteration. The daemon keeps serving: the iteration,
// restaged by the surviving rank, and the next one match a one-server
// in-process oracle; and at no point does the temp tree the processes
// share, nor /dev/shm, hold a file of theirs beyond the connection file.
func TestCommandLineClientKilledMidStage(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs subprocesses")
	}
	serverBin, ctlBin := buildBinaries(t)
	dir := t.TempDir()
	connFile := filepath.Join(dir, "colza.addr")
	env := append(os.Environ(), "TMPDIR="+dir)
	noFiles := func(when string) {
		t.Helper()
		filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && path != dir && path != connFile {
				t.Errorf("%s: %s in the shared temp tree", when, path)
			}
			return nil
		})
		ents, _ := os.ReadDir("/dev/shm")
		for _, e := range ents {
			if strings.Contains(e.Name(), "colza") {
				t.Errorf("%s: /dev/shm/%s", when, e.Name())
			}
		}
	}

	srv := exec.Command(serverBin, "-listen", "127.0.0.1:0", "-connfile", connFile, "-gossip-ms", "20")
	srv.Env = env
	srv.Stdout, srv.Stderr = os.Stderr, os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Process.Kill(); srv.Wait() })
	var target string
	for deadline := time.Now().Add(20 * time.Second); target == "" && time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if data, err := os.ReadFile(connFile); err == nil {
			target = strings.TrimSpace(string(data))
		}
	}
	if !strings.HasPrefix(target, "sm+tcp://") {
		t.Fatalf("connection file holds %q, want a dual address", target)
	}

	ep, err := na.ListenDual("127.0.0.1:0", "", "rank0")
	if err != nil {
		t.Fatal(err)
	}
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	pcfg, _ := json.Marshal(catalyst.IsoConfig{
		Field: "value", IsoValues: []float64{8}, Width: 64, Height: 64,
		ScalarRange: [2]float64{0, 32}, EmitImage: true,
	})
	if err := core.NewAdminClient(mi).CreatePipeline(target, "viz", catalyst.IsoPipelineType, pcfg); err != nil {
		t.Fatal(err)
	}
	h := core.NewClient(mi).Handle("viz", target)
	h.SetTimeout(30 * time.Second)
	oracle := isoOracle(t, pcfg, 2)

	view, err := h.Activate(1)
	if err != nil {
		t.Fatal(err)
	}
	// The encoded view is binary: it crosses argv in hex.
	helper := exec.Command(os.Args[0], "-test.run=^TestSMClientHelper$", "--", target, hex.EncodeToString(view.Encode()))
	helper.Env = env
	helper.Stderr = os.Stderr
	out, err := helper.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := helper.Start(); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(out).ReadString('\n'); line != "staged\n" {
		helper.Process.Kill()
		helper.Wait()
		t.Fatalf("helper client said %q (%v), want \"staged\"", line, err)
	}
	noFiles("client staging")
	helper.Process.Signal(syscall.SIGKILL)
	helper.Wait()
	noFiles("client killed")

	for it := uint64(1); it <= 2; it++ {
		if it > 1 {
			if _, err := h.Activate(it); err != nil {
				t.Fatalf("iteration %d activate: %v", it, err)
			}
		}
		got := stageAndExecute(t, h, it)
		if err := h.Deactivate(it); err != nil {
			t.Fatalf("iteration %d deactivate: %v", it, err)
		}
		want := oracle[it-1]
		for _, key := range []string{"blocks", "cells", "triangles"} {
			if got.Summary[key] != want.Summary[key] {
				t.Errorf("iteration %d: %s = %v, oracle %v", it, key, got.Summary[key], want.Summary[key])
			}
		}
		if !bytes.Equal(got.Image, want.Image) {
			t.Errorf("iteration %d: the picture differs from the oracle's", it)
		}
	}
	metrics, err := exec.Command(ctlBin, "-connfile", connFile, "metrics").CombinedOutput()
	if err != nil {
		t.Fatalf("colza-ctl metrics: %v\n%s", err, metrics)
	}
	assertMetricLine(t, string(metrics), "counter na.shm.pull.local") // the blocks were read in place
	noFiles("after the run")
}

// stageAndExecute stages every block of iteration it and executes it on a
// one-server staging area.
func stageAndExecute(t *testing.T, h *core.DistributedPipelineHandle, it uint64) core.ExecResult {
	t.Helper()
	for b := 0; b < killedClientMB.Blocks; b++ {
		blk := sim.MandelbulbBlock(killedClientMB, b, it)
		if err := h.Stage(it, sim.MandelbulbMeta(killedClientMB, b), blk.Encode()); err != nil {
			t.Fatalf("iteration %d stage %d: %v", it, b, err)
		}
	}
	results, err := h.Execute(it)
	if err != nil {
		t.Fatalf("iteration %d execute: %v", it, err)
	}
	if len(results) != 1 {
		t.Fatalf("iteration %d: %d results, want 1", it, len(results))
	}
	return results[0]
}

// isoOracle runs iterations 1..iters of killedClientMB through the iso
// pipeline of config pcfg on one in-process server, undisturbed.
func isoOracle(t *testing.T, pcfg []byte, iters int) []core.ExecResult {
	t.Helper()
	net := na.NewInprocNetwork()
	srv, err := core.StartInprocServer(net, "kc-oracle0", core.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ep, _ := net.Listen("kc-oracle-client")
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	if err := core.NewAdminClient(mi).CreatePipeline(srv.Addr(), "viz", catalyst.IsoPipelineType, pcfg); err != nil {
		t.Fatal(err)
	}
	h := core.NewClient(mi).Handle("viz", srv.Addr())
	h.SetTimeout(30 * time.Second)
	var out []core.ExecResult
	for it := uint64(1); it <= uint64(iters); it++ {
		if _, err := h.Activate(it); err != nil {
			t.Fatal(err)
		}
		out = append(out, stageAndExecute(t, h, it))
		if err := h.Deactivate(it); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestSMClientHelper is the client process TestCommandLineClientKilledMidStage
// starts and kills. Given the daemon's address and an activated view of
// iteration 1 (after "--"), it stages its share of the iteration over a
// dual endpoint, prints "staged", and stages it again and again until it
// is killed. Without arguments, in every ordinary test run, it skips.
func TestSMClientHelper(t *testing.T) {
	args := flag.Args()
	if len(args) != 2 {
		t.Skip("runs as a helper process only")
	}
	raw, err := hex.DecodeString(args[1])
	if err != nil {
		t.Fatal(err)
	}
	view, err := core.DecodeMemberView(raw)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := na.ListenDual("127.0.0.1:0", "", "helper")
	if err != nil {
		t.Fatal(err)
	}
	h := core.NewClient(margo.NewInstance(ep)).Handle("viz", args[0])
	h.SetView(view)
	h.SetTimeout(30 * time.Second)
	for round := 0; ; round++ {
		for b := 0; b < killedClientMB.Blocks/2; b++ {
			blk := sim.MandelbulbBlock(killedClientMB, b, 1)
			if err := h.Stage(1, sim.MandelbulbMeta(killedClientMB, b), blk.Encode()); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Flush(1); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			fmt.Println("staged")
		}
	}
}
