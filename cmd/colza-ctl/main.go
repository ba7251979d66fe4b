// Command colza-ctl is the admin tool for a running Colza deployment: it
// drives the paper's separate "admin" interface — creating and destroying
// pipelines, listing members, and requesting servers to leave the staging
// area (scale-down).
//
// Usage:
//
//	colza-ctl -connfile /tmp/colza.addr members
//	colza-ctl -server tcp://... create viz catalyst/iso '{"field":"value"}'
//	colza-ctl -server tcp://... create-all viz catalyst/iso '{"field":"value"}'
//	colza-ctl -server tcp://... list
//	colza-ctl -server tcp://... destroy viz
//	colza-ctl -server tcp://... leave
//	colza-ctl -server tcp://... metrics
//	colza-ctl -server tcp://... trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"colza/internal/core"
	"colza/internal/elastic"
	"colza/internal/margo"
	"colza/internal/na"
)

// rpcTimeout bounds each view fetch.
const rpcTimeout = 10 * time.Second

func usage() {
	fmt.Fprintln(os.Stderr, `usage: colza-ctl [-server addr | -connfile file] <command> [args]
commands:
  members                         list staging-area members
  list                            list pipelines on the target server
  types                           list pipeline types the server can create
  create <name> <type> [json]    create a pipeline on the target server
  create-all <name> <type> [json] create a pipeline on every member
  destroy <name>                  destroy a pipeline on the target server
  leave                           ask the target server to leave
  metrics                         dump the target server's metrics registry
  trace                           dump the target server's span trace (JSON lines)
  elastic status                  show the elastic controller's verdicts and counters`)
	os.Exit(2)
}

func main() {
	server := flag.String("server", "", "RPC address of the target server (tcp://host:port)")
	connFile := flag.String("connfile", "", "read the target address from a connection file")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	target := *server
	if target == "" && *connFile != "" {
		data, err := os.ReadFile(*connFile)
		if err != nil {
			fatal("read connection file: %v", err)
		}
		target = strings.TrimSpace(string(data))
	}
	if target == "" {
		fatal("no target: pass -server or -connfile")
	}

	// An admin tool exposes no bulk, and a plain tcp endpoint reaches a
	// daemon's sm+tcp address through its tcp component.
	ep, err := na.ListenTCP("127.0.0.1:0")
	if err != nil {
		fatal("listen: %v", err)
	}
	mi := margo.NewInstance(ep)
	defer mi.Finalize()
	client := core.NewClient(mi)
	admin := core.NewAdminClient(mi)

	switch args[0] {
	case "members":
		view, err := client.FetchView(target, rpcTimeout)
		if err != nil {
			fatal("%v", err)
		}
		for i, m := range view.Members {
			fmt.Printf("rank %d: rpc=%s mona=%s\n", i, m.RPC, m.Mona)
		}
	case "list":
		names, err := admin.ListPipelines(target)
		if err != nil {
			fatal("%v", err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "types":
		names, err := admin.ListTypes(target)
		if err != nil {
			fatal("%v", err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "create", "create-all":
		if len(args) < 3 {
			usage()
		}
		var cfg json.RawMessage
		if len(args) >= 4 {
			cfg = json.RawMessage(args[3])
		}
		if args[0] == "create" {
			if err := admin.CreatePipeline(target, args[1], args[2], cfg); err != nil {
				fatal("%v", err)
			}
		} else {
			view, err := client.FetchView(target, rpcTimeout)
			if err != nil {
				fatal("%v", err)
			}
			if err := admin.CreatePipelineEverywhere(view, args[1], args[2], cfg); err != nil {
				fatal("%v", err)
			}
		}
		fmt.Println("ok")
	case "destroy":
		if len(args) < 2 {
			usage()
		}
		if err := admin.DestroyPipeline(target, args[1]); err != nil {
			fatal("%v", err)
		}
		fmt.Println("ok")
	case "leave":
		if err := admin.RequestLeave(target); err != nil {
			fatal("%v", err)
		}
		fmt.Println("ok")
	case "metrics":
		snap, err := admin.MetricsSnapshot(target)
		if err != nil {
			fatal("%v", err)
		}
		if err := snap.WriteText(os.Stdout); err != nil {
			fatal("%v", err)
		}
	case "elastic":
		if len(args) < 2 || args[1] != "status" {
			usage()
		}
		raw, err := admin.ElasticStatus(target)
		if err != nil {
			fatal("%v", err)
		}
		var st elastic.Status
		if err := json.Unmarshal(raw, &st); err != nil {
			fatal("decoding status: %v", err)
		}
		elastic.WriteStatus(os.Stdout, st)
	case "trace":
		recs, err := admin.Trace(target)
		if err != nil {
			fatal("%v", err)
		}
		enc := json.NewEncoder(os.Stdout)
		for _, rec := range recs {
			if err := enc.Encode(rec); err != nil {
				fatal("%v", err)
			}
		}
	default:
		usage()
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "colza-ctl: "+format+"\n", args...)
	os.Exit(1)
}
