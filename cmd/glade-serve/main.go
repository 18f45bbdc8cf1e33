// Command glade-serve runs the grammar-learning-as-a-service daemon: a
// JSON/HTTP API multiplexing many learn jobs and many fuzz-input consumers
// over the concurrent oracle engine, with learned grammars persisted to a
// disk-backed store that survives restarts.
//
//	glade-serve -data ./glade-data -jobs 2 -workers 4
//
// The server has no authentication, so it listens on loopback
// (127.0.0.1:8080) by default; exec oracle specs — which run client-chosen
// commands as subprocesses — are refused unless started with -allow-exec.
// Named oracle specs (builtin/program/target, listed by GET /v1/oracles)
// run in-process and need no -allow-exec. Only widen -addr or enable
// -allow-exec when every client that can reach the port is trusted (e.g.
// behind an authenticating reverse proxy).
//
// Observability: GET /metrics serves Prometheus text exposition (oracle
// latency histograms, HTTP and job/campaign lifecycle series); -debug-addr
// starts a second, loopback-only listener carrying net/http/pprof (and a
// /metrics alias) so profiling is never reachable through the public port;
// -log-format/-log-level control the structured stderr log.
//
// A session:
//
//	curl -s localhost:8080/v1/oracles                # registered oracle specs
//	curl -s -X POST localhost:8080/v1/jobs \
//	    -d '{"oracle":{"type":"program","name":"sed"}}'  # → {"id":"...","state":"queued",...}
//	curl -s localhost:8080/v1/jobs/<id>?watch=1      # NDJSON progress stream
//	curl -s -X DELETE localhost:8080/v1/jobs/<id>    # cancel (state "canceled")
//	curl -s localhost:8080/v1/grammars/<id>          # the learned grammar
//	curl -s -X POST 'localhost:8080/v1/grammars/<id>/generate?n=10&valid=1'
//	curl -s -X POST localhost:8080/v1/campaigns \
//	    -d '{"grammar_id":"<id>","duration_ms":30000}'  # fuzzing campaign
//	curl -s -X POST localhost:8080/v1/campaigns \
//	    -d '{"oracle":{"type":"builtin","name":"json"},
//	         "diff_oracle":{"type":"builtin","name":"json-strict"},
//	         "duration_ms":30000}'                      # differential campaign
//	curl -s localhost:8080/v1/campaigns/<id>?watch=1    # NDJSON checkpoints
//	curl -s -X DELETE localhost:8080/v1/campaigns/<id>  # cancel, report kept
//	curl -s localhost:8080/metrics                      # Prometheus exposition
//
// See internal/service for the full API surface.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"glade/internal/cluster"
	"glade/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (loopback by default: the API has no authentication)")
	data := flag.String("data", "glade-data", "grammar store directory (created if absent, reloaded on restart)")
	jobs := flag.Int("jobs", 2, "concurrently running learn jobs")
	queue := flag.Int("queue", 256, "queued-job limit; submissions beyond it get 503")
	workers := flag.Int("workers", 1, "default per-job concurrent oracle queries (job specs may override)")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-job learning time bound")
	oracleTimeout := flag.Duration("oracle-timeout", 10*time.Second, "default per-query timeout for exec oracles; a hanging target is killed and treated as rejecting")
	allowExec := flag.Bool("allow-exec", false, "permit exec oracle specs, letting API clients run arbitrary commands on this host; enable only when every client is trusted")
	maxValidating := flag.Int("max-validating", 2, "concurrent validity-filtered generate requests (?valid=1); excess requests wait for a slot")
	campaigns := flag.Int("campaigns", 1, "concurrently running fuzzing campaigns; queued campaigns wait")
	campaignTimeout := flag.Duration("campaign-timeout", 10*time.Minute, "upper bound on one campaign's duration (clamps the client-chosen duration_ms)")
	retries := flag.Int("retries", 0, "default per-query retry budget for transient oracle failures (job/campaign specs may override, clamped to -max-retries)")
	maxRetries := flag.Int("max-retries", 8, "upper bound on the per-query retry budget a job or campaign spec may request")
	breakerThreshold := flag.Int("breaker-threshold", 16, "consecutive transient oracle failures that open the per-oracle circuit breaker (negative disables)")
	logFormat := flag.String("log-format", "text", `log output format: "text" or "json"`)
	logLevel := flag.String("log-level", "info", `minimum log level: "debug", "info", "warn", or "error" (debug includes per-request HTTP lines)`)
	debugAddr := flag.String("debug-addr", "", "optional debug listener with net/http/pprof and /metrics (e.g. 127.0.0.1:6060); keep it on loopback — it is never mounted on the public mux")
	peers := flag.String("peers", "", "comma-separated host:port list of every cluster member including this node; empty runs single-node")
	self := flag.String("self", "", "this node's address as it appears in -peers (defaults to -addr); must match exactly for ownership routing")
	flag.Parse()

	fatal := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "glade-serve: "+format+"\n", args...)
		os.Exit(1)
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fatal("bad -log-level %q: %v", *logLevel, err)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, hopts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	default:
		fatal("bad -log-format %q: want text or json", *logFormat)
	}
	logger := slog.New(handler)

	cfg := service.Config{
		DataDir:              *data,
		MaxJobs:              *jobs,
		QueueDepth:           *queue,
		DefaultWorkers:       *workers,
		MaxJobDuration:       *jobTimeout,
		DefaultOracleTimeout: *oracleTimeout,
		AllowExec:            *allowExec,
		MaxValidating:        *maxValidating,
		MaxCampaigns:         *campaigns,
		MaxCampaignDuration:  *campaignTimeout,
		DefaultRetries:       *retries,
		MaxRetries:           *maxRetries,
		BreakerThreshold:     *breakerThreshold,
		Logger:               logger,
	}
	srv, err := service.New(cfg)
	if err != nil {
		fatal("%v", err)
	}

	// Every deployment runs behind the cluster router — a single node is
	// just a one-peer ring where every key is locally owned — so the code
	// path (and the /v1/cluster endpoint) is identical at every scale.
	selfAddr := *self
	if selfAddr == "" {
		selfAddr = *addr
	}
	peerList := []string{selfAddr}
	if *peers != "" {
		peerList = nil
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
	}
	ring, err := cluster.NewRing(peerList, 0)
	if err != nil {
		fatal("%v", err)
	}
	prober := cluster.NewProber(selfAddr, ring.Peers(), 0, logger)
	router, err := cluster.NewRouter(selfAddr, ring, prober, srv.Handler(), logger)
	if err != nil {
		fatal("%v", err)
	}
	if len(ring.Peers()) > 1 {
		prober.Start()
		defer prober.Stop()
		logger.Info("cluster mode", "self", selfAddr, "peers", ring.Peers())
	}

	// The pprof surface rides a separate listener so the public API port
	// never exposes profiling endpoints, whatever the mux grows later.
	if *debugAddr != "" {
		if host, _, err := net.SplitHostPort(*debugAddr); err == nil {
			ip := net.ParseIP(host)
			if host != "localhost" && (ip == nil || !ip.IsLoopback()) {
				logger.Warn("debug listener is not on loopback; pprof exposes process internals", "addr", *debugAddr)
			}
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", srv.Registry().Handler())
		dbg := &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		defer dbg.Close()
		go func() {
			logger.Info("debug listener", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           router,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "data", *data, "jobs", *jobs, "workers", *workers)
		errCh <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		logger.Info("shutting down", "signal", s.String())
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fatal("%v", err)
		}
	}

	// Drain first so GET /readyz flips to 503 and load balancers stop
	// routing traffic here, then stop accepting HTTP (long watch streams
	// get 10 s to finish), then wait for running learn jobs so no learned
	// grammar is lost.
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	srv.Close()
	logger.Info("bye")
}
