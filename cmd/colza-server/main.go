// Command colza-server runs one Colza staging daemon over TCP. The first
// daemon of a deployment creates the group and writes its address to the
// connection file; subsequent daemons read that file and join through SSG
// — the paper's scale-up path ("the Colza daemon will read connection
// information from a file generated by existing Colza processes and use
// SSG to automatically join the existing group").
//
// Usage:
//
//	colza-server -listen 127.0.0.1:0 -connfile /tmp/colza.addr
//
// Start more servers with the same -connfile to grow the staging area;
// use colza-ctl to create pipelines and to ask servers to leave.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"colza/internal/catalyst"
	"colza/internal/core"
	"colza/internal/elastic"
	"colza/internal/na"
	"colza/internal/ssg"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "TCP host:port for the RPC endpoint (port 0 = ephemeral)")
	smOn := flag.Bool("sm", true, "also listen for colocated peers; the RPC address becomes sm+tcp://... and colocated peers exchange frames over a unix socket and pull staged blocks from a shared arena")
	connFile := flag.String("connfile", "colza.addr", "connection file: created by the first daemon, read by joiners")
	gossipMS := flag.Int("gossip-ms", 250, "SSG gossip period in milliseconds")
	stateReplicas := flag.Int("state-replicas", 1, "ring successors receiving each stateful pipeline's checkpoint after deactivate (0 disables the durability layer)")
	elasticOn := flag.Bool("elastic", false, "embed the closed-loop scaling controller (the SWIM leader's controller actuates)")
	elasticTarget := flag.Duration("elastic-target", time.Second, "desired per-iteration execute time the controller steers toward")
	elasticCeiling := flag.Int("elastic-ceiling", 8, "maximum staging-area size the controller may scale up to")
	flag.Parse()

	catalyst.Register()

	// The RPC endpoint is dual by default: it listens on TCP and on a unix
	// socket and advertises one composite address, so colocated clients
	// and daemons dial the unix socket and pull staged blocks straight out
	// of the exposer's shared arena, while remote peers dial TCP. It is the
	// daemon's one endpoint: the pipelines' MoNA collectives ride it too, so
	// colocated daemons composite over the unix socket.
	var rpcEP na.Endpoint
	var err error
	if *smOn {
		rpcEP, err = na.ListenDual(*listen, "", "")
	} else {
		rpcEP, err = na.ListenTCP(*listen)
	}
	if err != nil {
		fatal("listen rpc: %v", err)
	}

	// Bootstrap from the connection file if it already names a live
	// deployment; otherwise create the group and write the file.
	bootstrap := ""
	if data, err := os.ReadFile(*connFile); err == nil {
		bootstrap = strings.TrimSpace(string(data))
		if bootstrap == rpcEP.Addr() {
			bootstrap = ""
		}
	}
	cfg := core.ServerConfig{
		Bootstrap:     bootstrap,
		SSG:           ssg.Config{GossipPeriod: time.Duration(*gossipMS) * time.Millisecond},
		StateReplicas: *stateReplicas,
	}
	if *stateReplicas <= 0 {
		cfg.StateReplicas = -1 // flag 0 means off; config negative means off
	}
	srv, err := core.StartServer(rpcEP, nil, cfg)
	if err != nil {
		fatal("start server: %v", err)
	}
	if bootstrap == "" {
		if err := os.WriteFile(*connFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			fatal("write connection file: %v", err)
		}
		fmt.Printf("colza-server: created group, connection file %s\n", *connFile)
	} else {
		fmt.Printf("colza-server: joined group via %s\n", bootstrap)
	}
	fmt.Printf("colza-server: rpc=%s pipelines=%v\n", srv.Addr(), core.PipelineTypes())
	control, data := srv.MI.Pool(core.ControlPoolName).Config(), srv.MI.Pool(core.DataPoolName).Config()
	fmt.Printf("colza-server: pools control=%d/%d data=%d/%d (workers/queue)\n",
		control.Workers, control.Queue, data.Workers, data.Queue)

	// With -elastic every daemon embeds a controller, fed by its own
	// executes; only the one whose address heads the sorted membership (the
	// SWIM leader) actuates, and leadership hands off automatically when
	// that daemon dies. Scale-up re-execs this binary against the shared
	// connection file, so the new daemon bootstraps and carries its own
	// controller for future handoffs.
	var elasticCtl *elastic.Controller
	if *elasticOn {
		binary, err := os.Executable()
		if err != nil {
			binary = os.Args[0]
		}
		launcher := &elastic.ProcessLauncher{
			Binary: binary,
			Args: []string{
				"-listen", hostOnly(*listen) + ":0",
				"-connfile", *connFile,
				"-gossip-ms", fmt.Sprint(*gossipMS),
				// Boolean flags must use the -flag=value form: the flag
				// package stops parsing at a separate bare "true" token,
				// which would silently drop every flag after it.
				fmt.Sprintf("-sm=%v", *smOn),
				"-state-replicas", fmt.Sprint(*stateReplicas),
				"-elastic=true",
				"-elastic-target", elasticTarget.String(),
				"-elastic-ceiling", fmt.Sprint(*elasticCeiling),
			},
			Stdout: os.Stderr,
			Stderr: os.Stderr,
		}
		admin := core.NewAdminClient(srv.MI)
		elasticCtl, err = elastic.NewController(elastic.Config{
			Target:  *elasticTarget,
			Ceiling: *elasticCeiling,
		}, elastic.CoreDeps(srv.Addr(), srv.Group.Members, admin, launcher, srv.Obs))
		if err != nil {
			fatal("elastic controller: %v", err)
		}
		srv.Provider.SetElastic(elasticCtl)
		if err := elasticCtl.Start(); err != nil {
			fatal("elastic controller: %v", err)
		}
		fmt.Printf("colza-server: elastic controller on (target=%v ceiling=%d)\n", *elasticTarget, *elasticCeiling)
	}

	// Leave requests arriving via the admin interface shut us down.
	done := make(chan struct{}, 1)
	srv.Provider.OnLeave(func() {
		fmt.Println("colza-server: asked to leave the staging area; shutting down")
		done <- struct{}{}
	})

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case <-done:
		if st := srv.Provider.LastMigration(); st != nil && st.Partial() {
			fmt.Fprintf(os.Stderr, "colza-server: WARNING: state hand-over incomplete: %d attempted, %d acknowledged, no taker for: %v\n",
				st.Attempted, st.Migrated, st.Failed)
		}
	case s := <-sigs:
		fmt.Printf("colza-server: %v; leaving group\n", s)
		srv.Group.Leave()
		time.Sleep(time.Duration(*gossipMS) * 4 * time.Millisecond)
	}
	if elasticCtl != nil {
		elasticCtl.Stop()
	}
	// If the connection file still names this daemon, point it at a
	// survivor so later joiners and colza-ctl keep working after we exit.
	if data, err := os.ReadFile(*connFile); err == nil && strings.TrimSpace(string(data)) == srv.Addr() {
		survivor := ""
		for _, m := range srv.Group.Members() {
			if m != srv.Addr() {
				survivor = m
				break
			}
		}
		if survivor != "" {
			if err := os.WriteFile(*connFile, []byte(survivor+"\n"), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "colza-server: rewrite connection file: %v\n", err)
			} else {
				fmt.Printf("colza-server: connection file now points at %s\n", survivor)
			}
		} else {
			os.Remove(*connFile)
			fmt.Println("colza-server: last member out; removed connection file")
		}
	}
	fmt.Println("colza-server: final metrics:")
	if err := srv.Obs.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "colza-server: metrics dump: %v\n", err)
	}
	srv.MI.Finalize()
}

// hostOnly strips the port from a host:port listen spec so launched
// daemons bind ephemeral ports on the same interface.
func hostOnly(listen string) string {
	if host, _, err := net.SplitHostPort(listen); err == nil {
		return host
	}
	return listen
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "colza-server: "+format+"\n", args...)
	os.Exit(1)
}
