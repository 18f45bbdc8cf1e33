// Package service implements glade-serve: a long-lived daemon that
// multiplexes many grammar-learn jobs and many fuzz-input consumers over
// the core/oracle engine, amortizing learning cost across requests the way
// parser servers amortize compilation.
//
// The JSON/HTTP surface:
//
//	POST   /v1/jobs                     submit a learn job (seeds + oracle spec)
//	GET    /v1/jobs                     list jobs
//	GET    /v1/jobs/{id}                job snapshot; ?events=1 for the full
//	                                    progress stream, ?watch=1 to stream
//	                                    NDJSON events until the job finishes
//	DELETE /v1/jobs/{id}                cancel a queued or running job; a
//	                                    running learn stops within one wave
//	GET    /v1/grammars                 list stored grammars
//	GET    /v1/grammars/{id}            the grammar in cfg.Marshal text form
//	POST   /v1/grammars/{id}/generate   fuzz inputs from the stored grammar
//	POST   /v1/campaigns                start a fuzzing campaign (stored
//	                                    grammar, or learn-then-fuzz oracle)
//	GET    /v1/campaigns                list campaigns
//	GET    /v1/campaigns/{id}           campaign snapshot with latest report;
//	                                    ?watch=1 streams NDJSON checkpoints
//	DELETE /v1/campaigns/{id}           cancel a campaign (its report is
//	                                    finalized and kept)
//	GET    /v1/oracles                  registered oracle specs (builtins,
//	                                    programs, targets) and exec gating
//	GET    /v1/stats                    per-job learner + oracle query stats
//	GET    /healthz                     liveness
//
// Cancellation lands work in the "canceled" state — distinct from
// "failed" — and persists it, like every other terminal outcome: learned
// grammars, terminal job records, and campaign reports all live in the
// disk-backed store and survive restarts. Membership checks and generation
// requests for a grammar share its store entry, which builds the compiled
// ladder and the fuzzer over it once, so concurrent consumers scale.
package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"glade/internal/telemetry"
)

// Config configures a Server. The zero value is usable apart from DataDir,
// which must name the grammar-store directory.
type Config struct {
	// DataDir is the grammar store's directory; created if absent.
	DataDir string
	// MaxJobs bounds concurrently running learn jobs (default 2). Queued
	// jobs beyond it wait in submission order.
	MaxJobs int
	// QueueDepth bounds jobs waiting to run (default 256); submissions
	// beyond it are rejected with 503.
	QueueDepth int
	// DefaultWorkers is the per-job oracle concurrency when the job spec
	// does not set one (default 1, the paper's sequential algorithm).
	DefaultWorkers int
	// MaxWorkers clamps the per-job oracle concurrency a job spec may
	// request (default 16) — wave sizes and subprocess fan-out scale with
	// it, so it must not be client-controlled without bound.
	MaxWorkers int
	// MaxJobDuration bounds each job's learning time (default 5m). Job
	// specs may shorten it but not exceed it.
	MaxJobDuration time.Duration
	// DefaultOracleTimeout bounds each exec-oracle query when the job spec
	// does not set one (default 10s; a hanging target program is killed).
	DefaultOracleTimeout time.Duration
	// AllowExec permits exec oracle specs, which make the API run
	// client-chosen argv as subprocesses — arbitrary command execution by
	// design. Off by default: enable only when every client that can reach
	// the listen address is trusted (the server has no authentication).
	// When off, exec job submissions and validity-filtered generation from
	// grammars recorded with an exec oracle are rejected with 403.
	AllowExec bool
	// MaxValidating bounds concurrent validity-filtered generate requests
	// (?valid=1), each of which may run thousands of oracle subprocess
	// invocations (default 2). Excess requests wait for a slot until the
	// per-request deadline expires.
	MaxValidating int
	// MaxCampaigns bounds concurrently running fuzzing campaigns
	// (default 1); queued campaigns wait in submission order. A campaign
	// keeps Workers oracle queries in flight for its whole duration, so
	// the default keeps one campaign from starving learn jobs.
	MaxCampaigns int
	// MaxCampaignDuration clamps the client-chosen campaign duration
	// (default 10m). HTTP-submitted campaigns are always bounded.
	MaxCampaignDuration time.Duration
	// MaxSeedBytes bounds the total seed payload of one job (default 1MiB).
	MaxSeedBytes int
	// DefaultRetries is the per-query transient-failure retry budget when
	// a job or campaign spec does not set one (default 0: a transient
	// oracle error fails the query on first occurrence, as before).
	DefaultRetries int
	// MaxRetries clamps the per-query retry budget a spec may request
	// (default 8) — each retry can spawn another oracle subprocess, so it
	// must not be client-controlled without bound.
	MaxRetries int
	// BreakerThreshold opens the per-oracle circuit breaker after this
	// many consecutive transient failures, shedding load from an oracle
	// that is down instead of hammering it (default 16; negative
	// disables the breaker).
	BreakerThreshold int
	// Logger, when non-nil, receives the server's structured logs:
	// request lines at debug, job/campaign lifecycle at info, persistence
	// problems at warn/error. See cmd/glade-serve's -log-format and
	// -log-level flags.
	Logger *slog.Logger
	// Registry receives the server's metrics (HTTP, job/campaign
	// lifecycle, oracle latency, store gauges) and backs GET /metrics. Nil
	// gets a private registry, so metrics always work; pass one to share
	// series with other subsystems or expose them on a debug listener.
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 1
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = 16
	}
	if c.DefaultWorkers > c.MaxWorkers {
		c.DefaultWorkers = c.MaxWorkers
	}
	if c.MaxJobDuration <= 0 {
		c.MaxJobDuration = 5 * time.Minute
	}
	if c.DefaultOracleTimeout <= 0 {
		c.DefaultOracleTimeout = 10 * time.Second
	}
	if c.MaxValidating <= 0 {
		c.MaxValidating = 2
	}
	if c.MaxCampaigns <= 0 {
		c.MaxCampaigns = 1
	}
	if c.MaxCampaignDuration <= 0 {
		c.MaxCampaignDuration = 10 * time.Minute
	}
	if c.MaxSeedBytes <= 0 {
		c.MaxSeedBytes = 1 << 20
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.DefaultRetries < 0 {
		c.DefaultRetries = 0
	}
	if c.DefaultRetries > c.MaxRetries {
		c.DefaultRetries = c.MaxRetries
	}
	switch {
	case c.BreakerThreshold < 0:
		c.BreakerThreshold = 0
	case c.BreakerThreshold == 0:
		c.BreakerThreshold = 16
	}
	return c
}

// resolveRetries maps a client-requested retry budget onto the server's
// clamps: nil means the server default; explicit requests clamp to
// [0, MaxRetries].
func (c Config) resolveRetries(req *int) int {
	r := c.DefaultRetries
	if req != nil {
		r = *req
	}
	if r < 0 {
		r = 0
	}
	return min(r, c.MaxRetries)
}

// Server is the glade-serve daemon: a grammar store (which also holds
// each resident grammar's fuzzer), bounded-concurrency ledgers for learn
// jobs and campaigns, and the HTTP handler tying them together. Create
// with New, serve its Handler, Close on shutdown.
type Server struct {
	cfg     Config
	store   *Store
	handler http.Handler
	log     *slog.Logger
	reg     *telemetry.Registry
	met     *serverMetrics
	// validating is the semaphore bounding concurrent ?valid=1 generate
	// requests (capacity cfg.MaxValidating).
	validating chan struct{}

	// baseCtx is cancelled by Close so running campaigns stop promptly and
	// queued work never starts.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// draining flips once the server begins shutting down (Drain or
	// Close): GET /readyz turns not-ready so load balancers stop routing
	// new work here, while /healthz stays 200 for the process liveness
	// probe and in-flight requests finish normally.
	draining atomic.Bool

	jobs      *ledger[*Job]
	campaigns *ledger[*CampaignRun]
}

// New opens the store under cfg.DataDir (loading grammars, job records,
// and campaign records written by earlier incarnations) and starts
// cfg.MaxJobs job workers and cfg.MaxCampaigns campaign workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	store, err := OpenStore(cfg.DataDir, logger)
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:        cfg,
		store:      store,
		log:        logger,
		reg:        reg,
		met:        newServerMetrics(reg),
		validating: make(chan struct{}, cfg.MaxValidating),
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.jobs = newLedger(s, "job", "Learn jobs", "Learn jobs currently learning.", s.runJob, s.restoreJob)
	s.campaigns = newLedger(s, "campaign", "Campaigns", "Campaigns currently fuzzing (or learning their grammar).", s.runCampaign, restoreCampaign)
	s.registerGauges()
	s.jobs.load()
	s.campaigns.load()
	s.handler = s.routes()
	s.jobs.start(cfg.MaxJobs)
	s.campaigns.start(cfg.MaxCampaigns)
	s.log.Info("store loaded", "grammars", len(store.List()), "dir", store.Dir())
	return s, nil
}

// Registry exposes the server's metrics registry, so embedders (and
// cmd/glade-serve's debug listener) can mount or extend it.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Store exposes the grammar store (tests and tooling).
func (s *Server) Store() *Store { return s.store }

// Drain marks the server not-ready without stopping work: GET /readyz
// starts answering 503 so load balancers drain traffic away, while
// running jobs, campaigns, and in-flight requests continue. Call before
// http.Server.Shutdown for a graceful two-phase stop; Close implies it.
func (s *Server) Drain() {
	if !s.draining.Swap(true) {
		s.log.Info("draining: readyz now reports not ready")
	}
}

// Ready reports whether the server is accepting new work (not draining
// or closed) — the condition behind GET /readyz.
func (s *Server) Ready() bool { return !s.draining.Load() }

// Close stops accepting submissions, fails work still queued, cancels
// running campaigns (their final checkpoint persists), and waits for
// running jobs and campaigns to finish. Close is idempotent.
func (s *Server) Close() {
	s.draining.Store(true)
	// Campaigns run until their duration elapses; cancelling the base
	// context ends their fuzzing now (a cancelled campaign still finalizes
	// and persists its report), and aborts a campaign mid learn-phase too —
	// core.Learn observes the cancellation within one oracle wave. Running
	// learn jobs are not derived from it: their grammars are worth waiting
	// for.
	s.cancelBase()
	s.jobs.stop()
	s.campaigns.stop()
	s.jobs.wg.Wait()
	s.campaigns.wg.Wait()
}

var (
	errQueueFull    = fmt.Errorf("queue is full")
	errDraining     = fmt.Errorf("server is shutting down")
	errExecDisabled = fmt.Errorf("exec oracles are disabled on this server; start glade-serve with -allow-exec to permit them")
	// errAlreadyTerminal tags cancellations of work that already
	// finished, so the HTTP layer can answer 409 instead of 404/400.
	errAlreadyTerminal = fmt.Errorf("already in a terminal state")
)
