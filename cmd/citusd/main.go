// Command citusd hosts a Citus cluster in one process and serves the
// coordinator's wire protocol over TCP: a coordinator plus -workers worker
// nodes, each its own engine, connected through the same wire protocol a
// multi-process deployment would use.
//
//	citusd -listen 127.0.0.1:7432 -workers 4
//	citusctl -addr 127.0.0.1:7432
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"citusgo/internal/cluster"
	"citusgo/internal/obs"
	"citusgo/internal/repl"
	"citusgo/internal/trace"
	"citusgo/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7432", "coordinator listen address")
	workers := flag.Int("workers", 2, "number of worker nodes")
	shards := flag.Int("shards", 32, "shard count for new distributed tables")
	rtt := flag.Duration("rtt", 0, "simulated network round-trip between nodes")
	mx := flag.Bool("mx", false, "sync metadata to workers (any node can coordinate)")
	metricsAddr := flag.String("metrics", "", "serve /metrics (text exposition of the obs registry) and /trace/{id} on this address; empty disables")
	traceLog := flag.Bool("trace-log", false, "log statements slower than -trace-threshold (the slow-query log)")
	traceThreshold := flag.Duration("trace-threshold", 100*time.Millisecond, "slow-query log threshold (with -trace-log)")
	traceSample := flag.Float64("trace-sample", 1, "trace sampling rate in [0,1]; negative disables tracing")
	replicas := flag.Int("replication-factor", 0, "WAL-streaming standbys per worker (0 disables replication; see docs/replication.md)")
	replMode := flag.String("replication-mode", "sync", "replication mode with -replication-factor: sync (commits wait for standby acks) or async (bounded staleness)")
	healthInterval := flag.Duration("health-interval", 0, "placement health-probe period enabling auto-failover of crashed primaries; 0 disables")
	flag.Parse()

	var mode repl.Mode
	switch *replMode {
	case "sync":
		mode = repl.ModeSync
	case "async":
		mode = repl.ModeAsync
	default:
		fmt.Fprintf(os.Stderr, "unknown -replication-mode %q (want sync or async)\n", *replMode)
		os.Exit(2)
	}

	traceCfg := trace.Config{
		SampleRate:    *traceSample,
		SlowLog:       *traceLog,
		SlowThreshold: *traceThreshold,
		Logf:          log.Printf,
	}
	c, err := cluster.New(cluster.Config{
		Workers:           *workers,
		ShardCount:        *shards,
		NetworkRTT:        *rtt,
		SyncMetadata:      *mx,
		Trace:             traceCfg,
		ReplicationFactor: *replicas,
		ReplicationMode:   mode,
		HealthInterval:    *healthInterval,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cluster start failed: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	srv, err := wire.Serve(c.Engines[0], *listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen failed: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics listen failed: %v\n", err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = obs.Default().WriteText(w)
		})
		// /trace/{id}: the reassembled distributed trace, one line per span
		// (the HTTP face of SELECT citus_trace(id)).
		mux.HandleFunc("/trace/", func(w http.ResponseWriter, r *http.Request) {
			idStr := strings.TrimPrefix(r.URL.Path, "/trace/")
			id, err := strconv.ParseUint(idStr, 10, 64)
			if err != nil {
				http.Error(w, "trace id must be an unsigned integer", http.StatusBadRequest)
				return
			}
			spans := c.Coordinator().CollectTrace(id)
			if len(spans) == 0 {
				http.Error(w, "no spans recorded for this trace (evicted from the ring, or never sampled)", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, sp := range spans {
				fmt.Fprintln(w, trace.FormatSpan(sp))
			}
		})
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Printf("citusd: serving /metrics and /trace/{id} on http://%s/\n", ln.Addr())
	}

	fmt.Printf("citusd: coordinator + %d workers, %d shards per table\n", *workers, *shards)
	if *replicas > 0 {
		fmt.Printf("citusd: replication %s, %d standby(s) per worker\n", *replMode, *replicas)
	}
	if *traceLog {
		fmt.Printf("citusd: slow-query log enabled at %v (grep the log for \"slow-trace\")\n", *traceThreshold)
	}
	fmt.Printf("citusd: serving the wire protocol on %s\n", srv.Addr())
	fmt.Println("citusd: connect with: citusctl -addr " + srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\ncitusd: shutting down")
}
