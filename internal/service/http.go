package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"glade/internal/metrics"
	"glade/internal/oracle"
)

// maxBodyBytes bounds request bodies; seed payloads are separately bounded
// by Config.MaxSeedBytes.
const maxBodyBytes = 8 << 20

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	// Readiness is distinct from liveness: a draining server is still
	// healthy (in-flight work finishes) but must stop receiving new
	// traffic, so load balancers probe /readyz and liveness probes
	// /healthz.
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("POST /v1/jobs", handleSubmit("job", s.SubmitWithID))
	mux.HandleFunc("GET /v1/jobs", handleList(s.jobs))
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", handleCancel(s.jobs))
	mux.HandleFunc("GET /v1/grammars", s.handleListGrammars)
	mux.HandleFunc("GET /v1/grammars/{id}", s.handleGrammar)
	mux.HandleFunc("POST /v1/grammars/{id}/generate", s.handleGenerate)
	mux.HandleFunc("POST /v1/grammars/{id}/check", s.handleCheck)
	mux.HandleFunc("POST /v1/campaigns", handleSubmit("campaign", s.SubmitCampaignWithID))
	mux.HandleFunc("GET /v1/campaigns", handleList(s.campaigns))
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaign)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", handleCancel(s.campaigns))
	mux.HandleFunc("GET /v1/oracles", s.handleListOracles)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.reg.Handler())
	return s.recoverPanics(s.instrument(mux))
}

// oracleInfo is one row of GET /v1/oracles.
type oracleInfo struct {
	// Spec is the string a job or campaign oracle spec uses to select the
	// oracle ("builtin:json"); Kind and Name are its parts.
	Spec        string `json:"spec"`
	Kind        string `json:"kind"`
	Name        string `json:"name"`
	Description string `json:"description"`
	// Seeds is the number of bundled seed inputs a spec-only submission
	// learns from.
	Seeds int `json:"seeds"`
	// ExecGated reports whether using the oracle requires -allow-exec.
	// Every registered oracle runs in-process, so only the synthetic
	// "exec" row is gated.
	ExecGated bool `json:"exec_gated"`
}

// handleListOracles lists every named oracle the server can build —
// builtins, programs, and targets from the registry — plus a synthetic row
// for exec specs, with whether each is exec-gated and whether this server
// currently allows exec.
func (s *Server) handleListOracles(w http.ResponseWriter, r *http.Request) {
	regs := oracle.NamedOracles()
	rows := make([]oracleInfo, 0, len(regs)+1)
	for _, reg := range regs {
		rows = append(rows, oracleInfo{
			Spec:        reg.Kind + ":" + reg.Name,
			Kind:        reg.Kind,
			Name:        reg.Name,
			Description: reg.Description,
			Seeds:       len(reg.Seeds),
		})
	}
	rows = append(rows, oracleInfo{
		Spec:        "exec:CMD [ARGS...]",
		Kind:        oracle.SpecExec,
		Description: "external command oracle: input on stdin, valid iff exit status 0",
		ExecGated:   true,
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"oracles":      rows,
		"exec_allowed": s.cfg.AllowExec,
	})
}

// handleCancel cancels a job or campaign: 200 with the snapshot once the
// cancellation is recorded (queued tasks flip immediately; a running learn
// stops within one oracle wave, a running campaign finalizes and persists
// its report first), 404 for unknown ids, 409 when the task already
// reached a terminal state.
func handleCancel[T tasker](l *ledger[T]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := l.cancel(r.PathValue("id"))
		if err != nil {
			code := http.StatusConflict
			if errors.Is(err, errNotFound) {
				code = http.StatusNotFound
			}
			writeError(w, code, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, t.snapshot())
	}
}

// handleSubmit decodes a job or campaign spec and submits it under the id
// a cluster router assigned, if any.
func handleSubmit[S any, T tasker](kind string, submit func(context.Context, S, string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var spec S
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			writeError(w, http.StatusBadRequest, "bad %s spec: %v", kind, err)
			return
		}
		t, err := submit(r.Context(), spec, r.Header.Get(AssignedIDHeader))
		switch {
		case err == nil:
			writeJSON(w, http.StatusAccepted, t.snapshot())
		case errors.Is(err, errQueueFull):
			writeUnavailable(w, http.StatusServiceUnavailable, retryAfterSaturated, "%v", err)
		case errors.Is(err, errDraining):
			writeUnavailable(w, http.StatusServiceUnavailable, retryAfterDraining, "%v", err)
		case errors.Is(err, errExecDisabled):
			writeError(w, http.StatusForbidden, "%v", err)
		case errors.Is(err, errNotFound):
			writeError(w, http.StatusNotFound, "%v", err)
		case errors.Is(err, errDuplicateID):
			writeError(w, http.StatusConflict, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
	}
}

// handleList lists a ledger's tasks in submission order under the key
// "jobs" or "campaigns".
func handleList[T tasker](l *ledger[T]) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tasks := l.list()
		out := make([]any, len(tasks))
		for i, t := range tasks {
			out[i] = t.snapshot()
		}
		writeJSON(w, http.StatusOK, map[string]any{l.name + "s": out})
	}
}

// watchNDJSON streams a task as NDJSON: poll returns the lines due since
// its last call, whether the task is terminal (the stream then ends), and
// a channel closed on the task's next mutation.
func watchNDJSON(w http.ResponseWriter, r *http.Request, poll func() (lines []any, done bool, changed <-chan struct{})) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		lines, done, changed := poll()
		for _, line := range lines {
			_ = enc.Encode(line)
		}
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Suggested client backoff, in seconds, for the saturation responses.
// Queue-full and validation-saturation conditions clear as work drains;
// draining never clears for this process, so clients get a longer hint
// to find another instance.
const (
	retryAfterSaturated = 10
	retryAfterDraining  = 30
)

// writeUnavailable writes a saturation/overload error (429 or 503) with a
// Retry-After hint. Every saturation response the API emits goes through
// here — the retry contract is that any 429/503 carries the header.
func writeUnavailable(w http.ResponseWriter, code, retryAfterSeconds int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeError(w, code, format, args...)
}

// handleReady serves GET /readyz: 200 while the server accepts new work,
// 503 (with Retry-After) once draining has begun or the server is closed.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		writeUnavailable(w, http.StatusServiceUnavailable, retryAfterDraining, "draining; not accepting new work")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleJob serves one job: a JSON snapshot by default (?events=1 includes
// the buffered progress stream), or — with ?watch=1 — an NDJSON stream of
// progress events as they happen, terminated by the final job snapshot
// once the job reaches a terminal state.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, j.status(r.URL.Query().Get("events") != ""))
		return
	}

	cursor := 0
	watchNDJSON(w, r, func() ([]any, bool, <-chan struct{}) {
		fresh, next, state, changed := j.watch(cursor)
		cursor = next
		lines := make([]any, 0, len(fresh)+1)
		for _, ev := range fresh {
			lines = append(lines, ev)
		}
		if state.terminal() {
			lines = append(lines, j.status(false))
		}
		return lines, state.terminal(), changed
	})
}

func (s *Server) handleListGrammars(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"grammars": s.store.List()})
}

// handleGrammar serves the stored grammar text (cfg.Marshal form, loadable
// by cfg.Unmarshal and glade-fuzz -grammar); ?format=json wraps it with
// its metadata.
func (s *Server) handleGrammar(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	text, ok := s.store.Text(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no grammar %q", id)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		meta, _ := s.store.Meta(id)
		writeJSON(w, http.StatusOK, map[string]any{"meta": meta, "grammar": text})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

// Server-side bounds on validity-filtered generation (?valid=1): each
// accepted input may cost up to maxValidFactor oracle runs, possibly
// subprocesses, so unlike plain generation it is capped much lower, runs
// under a deadline, and at most Config.MaxValidating requests validate
// concurrently.
const (
	maxGenerateN      = 10000
	maxValidGenerateN = 500
	validGenerateTime = 2 * time.Minute
)

// handleGenerate draws fuzz inputs from a stored grammar's fuzzer, the one
// its store entry holds over the ladder POST …/check runs on.
// Query parameters: n (count, default 10, max 10000); valid=1 filters
// through the grammar's recorded oracle so only oracle-accepted inputs are
// returned (n capped at 500, bounded attempts and a server-side deadline —
// the response reports how many candidates were drawn).
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	valid := false
	if raw := r.URL.Query().Get("valid"); raw != "" {
		v, err := strconv.ParseBool(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad valid %q", raw)
			return
		}
		valid = v
	}
	limit := maxGenerateN
	if valid {
		limit = maxValidGenerateN
	}
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad n %q", raw)
			return
		}
		n = v
	}
	if n > limit {
		writeError(w, http.StatusBadRequest, "n %d exceeds limit %d", n, limit)
		return
	}
	ctx := r.Context()
	var check oracle.CheckOracle
	if valid {
		meta, ok := s.store.Meta(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no grammar %q", id)
			return
		}
		if meta.Spec.IsExec() && !s.cfg.AllowExec {
			writeError(w, http.StatusForbidden, "grammar %q validates through an exec oracle and %v", id, errExecDisabled)
			return
		}
		// Validation queries run under the request context (plus the
		// per-query exec timeout), so the deadline below bounds every
		// subprocess directly — no clamp needed, and a slot on the
		// validating semaphore can never be held past the deadline.
		o, _, err := s.buildResilientOracle(meta.Spec, s.cfg.resolveRetries(nil), s.met.resilientGenerate)
		if err != nil {
			writeError(w, http.StatusConflict, "grammar %q has no usable oracle for validation: %v", id, err)
			return
		}
		check = metrics.NewQueryTimer(o, s.met.oracleGenerate)
	}
	// Build the fuzzer before any deadline or slot below: building one
	// parses every seed (Earley, potentially slow and uncancellable). The
	// entry is held directly so LRU churn during a semaphore wait cannot
	// force a rebuild inside the deadline-bounded slot.
	e, err := s.store.entry(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	e.fuzzer()
	if valid {
		// Validation may run a subprocess per candidate: bound the whole
		// request with a deadline and take a slot on the server-wide
		// validating semaphore so a handful of clients cannot fan out an
		// unbounded number of oracle processes.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, validGenerateTime)
		defer cancel()
		select {
		case s.validating <- struct{}{}:
			defer func() { <-s.validating }()
		case <-ctx.Done():
			writeUnavailable(w, http.StatusServiceUnavailable, retryAfterSaturated, "validating generation is saturated; retry later")
			return
		}
	}
	inputs, attempts, err := e.generate(ctx, n, check)
	if err != nil {
		if r.Context().Err() != nil {
			return // client disconnected mid-generation
		}
		// The server-side deadline fired mid-validation: serve the inputs
		// gathered so far (count < n tells the client it was truncated).
		// Any other error means the validation oracle itself failed.
		if !errors.Is(err, context.DeadlineExceeded) {
			writeError(w, http.StatusBadGateway, "validation oracle failed: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"grammar_id": id,
		"inputs":     inputs,
		"count":      len(inputs),
		"attempts":   attempts,
	})
}

// handleCampaign serves one campaign: a JSON snapshot (with the latest
// checkpointed report) by default, or — with ?watch=1 — an NDJSON stream
// of snapshots at the checkpoint cadence, terminated by the final snapshot
// once the campaign reaches a terminal state.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	cr, ok := s.campaigns.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, cr.status())
		return
	}

	cursor := 0
	watchNDJSON(w, r, func() ([]any, bool, <-chan struct{}) {
		st, next, fresh, changed := cr.watch(cursor)
		cursor = next
		var lines []any
		if fresh {
			lines = append(lines, st)
		}
		return lines, st.State.terminal(), changed
	})
}

// jobStats is one job's row in /v1/stats.
type jobStats struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Oracle string   `json:"oracle"`
	// Learner effort (set once the job is done).
	Queries   int     `json:"queries,omitempty"`
	CacheHits int     `json:"cache_hits,omitempty"`
	Checks    int     `json:"checks,omitempty"`
	Seconds   float64 `json:"seconds,omitempty"`
	// Oracle-level timing from the per-job metrics.QueryTimer.
	OracleQueries   int     `json:"oracle_queries,omitempty"`
	MeanLatencyMS   float64 `json:"mean_latency_ms,omitempty"`
	P50LatencyMS    float64 `json:"p50_latency_ms,omitempty"`
	P95LatencyMS    float64 `json:"p95_latency_ms,omitempty"`
	P99LatencyMS    float64 `json:"p99_latency_ms,omitempty"`
	ThroughputQPS   float64 `json:"throughput_qps,omitempty"`
	OracleWallMS    float64 `json:"oracle_wall_ms,omitempty"`
	OracleSummary   string  `json:"oracle_summary,omitempty"`
	TimedOut        bool    `json:"timed_out,omitempty"`
	GrammarStored   bool    `json:"grammar_stored,omitempty"`
	ProgressPhase   string  `json:"progress_phase,omitempty"`
	ProgressQueries int     `json:"progress_queries,omitempty"`
	// PhaseNS is total learner wall time per phase, from the job's span
	// trace (present once the learn has finished).
	PhaseNS map[string]int64 `json:"phase_ns,omitempty"`
}

// handleStats surfaces per-job learner stats and metrics.QueryStats plus
// server-level aggregates. The top-level counters are derived from the
// telemetry registry snapshot — the same numbers /metrics exposes, marshaled
// once — under their historical keys; the raw snapshot rides along under
// "telemetry".
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	rows := make([]jobStats, 0, len(jobs))
	for _, j := range jobs {
		st := j.status(false)
		qs := j.queryStats()
		row := jobStats{ID: st.ID, State: st.State, Oracle: st.Oracle}
		if st.Progress != nil {
			row.ProgressPhase = st.Progress.Phase
			row.ProgressQueries = st.Progress.Queries
		}
		if st.Stats != nil {
			row.Queries = st.Stats.OracleQueries
			row.CacheHits = st.Stats.CacheHits
			row.Checks = st.Stats.Checks
			row.Seconds = st.Stats.Duration.Seconds()
			row.TimedOut = st.Stats.TimedOut
			row.GrammarStored = st.GrammarID != ""
		}
		if qs.Queries > 0 {
			row.OracleQueries = qs.Queries
			row.MeanLatencyMS = float64(qs.MeanLatency().Microseconds()) / 1e3
			row.P50LatencyMS = float64(qs.P50Latency.Microseconds()) / 1e3
			row.P95LatencyMS = float64(qs.P95Latency.Microseconds()) / 1e3
			row.P99LatencyMS = float64(qs.P99Latency.Microseconds()) / 1e3
			row.ThroughputQPS = qs.Throughput()
			row.OracleWallMS = float64(qs.Wall.Microseconds()) / 1e3
			row.OracleSummary = qs.String()
		}
		row.PhaseNS = j.phaseSummary()
		rows = append(rows, row)
	}
	snap := s.reg.Snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":                 rows,
		"grammars":             int(snapValue(snap, "glade_store_grammars")),
		"queued":               int(snapValue(snap, "glade_jobs_queued")),
		"running":              int(snapValue(snap, "glade_jobs_running")),
		"done":                 int(snapValue(snap, "glade_jobs_done_total")),
		"failed":               int(snapValue(snap, "glade_jobs_failed_total")),
		"total_queries":        int(snapValue(snap, "glade_oracle_queries_total")),
		"campaigns":            len(s.campaigns.list()),
		"campaigns_running":    int(snapValue(snap, "glade_campaigns_running")),
		"campaign_inputs":      int(snapValue(snap, "glade_campaign_inputs")),
		"campaign_interesting": int(snapValue(snap, "glade_campaign_interesting")),
		"telemetry":            snap,
	})
}
