package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"glade/internal/bytesets"
	"glade/internal/core"
	"glade/internal/metrics"
	"glade/internal/oracle"
	"glade/internal/telemetry"
	// The registry fills oracle's named table: importing service is enough
	// to make every builtin, program, and target spec resolvable.
	_ "glade/internal/oracle/registry"
)

// buildOracle resolves a spec against the server's defaults with no
// resilience layer — the cheap form the validation-only paths use (a
// submission check never issues a query, so it needs no retry loop).
func buildOracle(sp oracle.Spec, workers int, defaultTimeout time.Duration) (oracle.CheckOracle, []string, error) {
	return sp.Build(oracle.BuildOptions{Workers: workers, DefaultTimeout: defaultTimeout})
}

// buildResilientOracle is the query-issuing form: the oracle every job,
// campaign, and validity-filtered generation actually runs carries the
// server's resilience layer — the clamped retry budget, the circuit
// breaker, and the shared per-source telemetry instruments.
func (s *Server) buildResilientOracle(sp oracle.Spec, workers, retries int, met *oracle.ResilientMetrics) (oracle.CheckOracle, []string, error) {
	opt := oracle.BuildOptions{Workers: workers, DefaultTimeout: s.cfg.DefaultOracleTimeout}
	if retries > 0 {
		opt.Retry = oracle.RetryPolicy{MaxAttempts: retries + 1}
	}
	if s.cfg.BreakerThreshold > 0 {
		opt.Breaker = oracle.BreakerPolicy{Threshold: s.cfg.BreakerThreshold}
	}
	opt.ResilientMetrics = met // used only when the options add the wrapper
	return sp.Build(opt)
}

// JobOptions is the client-settable subset of core.Options. Pointer fields
// distinguish "unset, use the default" from explicit false/zero.
type JobOptions struct {
	Phase2            *bool `json:"phase2,omitempty"`
	CharGen           *bool `json:"chargen,omitempty"`
	Workers           int   `json:"workers,omitempty"`
	TimeoutMS         int   `json:"timeout_ms,omitempty"`
	MergeSampleChecks *int  `json:"merge_sample_checks,omitempty"`
	RandSeed          int64 `json:"rand_seed,omitempty"`
	// Retries is the per-query transient-failure retry budget (nil uses
	// the server default, clamped server-side to Config.MaxRetries).
	Retries *int `json:"retries,omitempty"`
}

// JobSpec is the body of POST /v1/jobs. Empty Seeds with a named oracle
// (builtin, program, target) selects the oracle's bundled seeds.
type JobSpec struct {
	Seeds   []string    `json:"seeds,omitempty"`
	Oracle  oracle.Spec `json:"oracle"`
	Options *JobOptions `json:"options,omitempty"`
}

// resolveOptions maps the spec onto core.Options, starting from the
// paper's defaults. Exec oracles restrict character generalization to the
// bytes of the seeds plus common structural characters, exactly as
// cmd/glade does — external processes are too expensive for a full
// printable-ASCII sweep per literal position; in-process oracles get the
// full sweep.
func (spec JobSpec) resolveOptions(cfg Config, seeds []string) core.Options {
	opts := core.DefaultOptions()
	opts.Timeout = cfg.MaxJobDuration
	opts.Workers = cfg.DefaultWorkers
	if spec.Oracle.IsExec() {
		opts.GenAlphabet = bytesets.OfString(strings.Join(seeds, "")).
			Union(bytesets.OfString(" \t\nabcxyz012<>()[]{}/\\\"'"))
	}
	jo := spec.Options
	if jo == nil {
		return opts
	}
	if jo.Phase2 != nil {
		opts.Phase2 = *jo.Phase2
	}
	if jo.CharGen != nil {
		opts.CharGen = *jo.CharGen
	}
	if jo.Workers > 0 {
		opts.Workers = min(jo.Workers, cfg.MaxWorkers)
	}
	if jo.TimeoutMS > 0 {
		t := time.Duration(jo.TimeoutMS) * time.Millisecond
		if cfg.MaxJobDuration == 0 || t < cfg.MaxJobDuration {
			opts.Timeout = t
		}
	}
	if jo.MergeSampleChecks != nil {
		opts.MergeSampleChecks = *jo.MergeSampleChecks
	}
	if jo.RandSeed != 0 {
		opts.RandSeed = jo.RandSeed
	}
	return opts
}

// Job is one learn job. Its lifecycle lives in the embedded task; the
// fields below are guarded by the task's mu.
type Job struct {
	*task
	Spec JobSpec

	// events buffers progress for snapshots and watchers. Slots
	// [0, len-1) hold the first events verbatim; once seq outgrows the
	// buffer the tail slot is overwritten with the newest event, so the
	// buffer is "head of the stream + latest". seq counts every event
	// ever emitted and is the watcher cursor space.
	events  []core.Progress
	seq     int
	stats   core.Stats
	queries metrics.QueryStats
	// spans are the learner's phase spans (core.Options.Tracer), recorded
	// once the learn returns and persisted with the terminal record.
	spans []telemetry.Span
	// seedCount is the number of resolved seed inputs (spec seeds or the
	// oracle's bundled defaults).
	seedCount int
}

func (j *Job) base() *task { return j.task }

func (j *Job) snapshot() any { return j.status(false) }

// jobRecord is the JSON persisted per terminal job under
// <DataDir>/jobs/<id>.json, so clients polling across a daemon restart
// still see what happened.
type jobRecord struct {
	taskRecord
	Oracle string      `json:"oracle"`
	Seeds  int         `json:"seeds"`
	Stats  *core.Stats `json:"stats,omitempty"`
	// Spans is the learner's phase trace, kept with the record so restored
	// jobs still answer span queries after a restart.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

func (j *Job) recordLocked() any {
	rec := jobRecord{taskRecord: j.task.recordLocked(), Oracle: j.Spec.Oracle.String(), Seeds: j.seedCount, Spans: j.spans}
	if j.state == JobDone {
		st := j.stats
		rec.Stats = &st
	}
	return rec
}

// restoreJob rebuilds a job from its record. The oracle spec is
// display-only: restored jobs are terminal and never rebuild their oracle.
func (s *Server) restoreJob(id string, data []byte) (*Job, error) {
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	b, err := rec.task(id)
	if err != nil {
		return nil, err
	}
	j := &Job{task: b, seedCount: rec.Seeds, spans: rec.Spans}
	j.Spec.Oracle = specFromName(rec.Oracle)
	if rec.Stats != nil {
		j.stats = *rec.Stats
		s.met.oracleQueries.Add(uint64(rec.Stats.OracleQueries))
	}
	return j, nil
}

// specFromName reconstructs a display-only oracle.Spec from the persisted
// "kind:detail" string (oracle.ParseSpec inverts Spec.String), so restored
// jobs render the same oracle column. The spec is not guaranteed runnable
// (exec argv quoting is lossy).
func specFromName(name string) oracle.Spec {
	sp, err := oracle.ParseSpec(name)
	if err != nil {
		return oracle.Spec{}
	}
	return sp
}

// appendEvent records one learner progress event. maxEvents bounds memory:
// char-gen on many seeds can emit thousands of literal events, so the
// buffer keeps the head of the stream and overwrites the tail slot with
// the newest event; watchers track seq, not buffer indices, so they keep
// sampling the latest event after the buffer fills.
const maxEvents = 512

func (j *Job) appendEvent(p core.Progress) {
	j.update(func() {
		if j.seq < maxEvents {
			j.events = append(j.events, p)
		} else {
			j.events[len(j.events)-1] = p
		}
		j.seq++
	})
}

// JobStatus is the wire form of a job snapshot.
type JobStatus struct {
	ID       string     `json:"id"`
	State    JobState   `json:"state"`
	Oracle   string     `json:"oracle"`
	Seeds    int        `json:"seeds"`
	Created  time.Time  `json:"created_at"`
	Started  *time.Time `json:"started_at,omitempty"`
	Finished *time.Time `json:"finished_at,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Progress is the most recent learner event (nil before the run
	// starts); Events is the full buffered stream when requested.
	Progress *core.Progress  `json:"progress,omitempty"`
	Events   []core.Progress `json:"events,omitempty"`
	// GrammarID is set once the job is done; the grammar then lives at
	// /v1/grammars/{grammar_id}.
	GrammarID string      `json:"grammar_id,omitempty"`
	Stats     *core.Stats `json:"stats,omitempty"`
	// Spans is the learner's phase-span trace (per-phase wall time and
	// effort counters), included when events are requested.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// status snapshots the job. withEvents includes the buffered event stream.
func (j *Job) status(withEvents bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.ID,
		State:    j.state,
		Oracle:   j.Spec.Oracle.String(),
		Seeds:    j.seedCount,
		Created:  j.created,
		Started:  timePtr(j.started),
		Finished: timePtr(j.finished),
		Error:    j.err,
	}
	if n := len(j.events); n > 0 {
		p := j.events[n-1]
		st.Progress = &p
		if withEvents {
			st.Events = append([]core.Progress(nil), j.events...)
		}
	}
	if withEvents && len(j.spans) > 0 {
		st.Spans = append([]telemetry.Span(nil), j.spans...)
	}
	if j.state == JobDone {
		st.GrammarID = j.ID
		s := j.stats
		st.Stats = &s
	}
	return st
}

// watch returns the events past cursor (a seq position), the advanced
// cursor, the current state, and a channel closed on the next mutation.
// While the buffer holds the whole stream delivery is exact; once it has
// overflowed, watchers past the exact head receive the newest event only
// (middles were dropped). Terminal states never mutate again.
func (j *Job) watch(cursor int) ([]core.Progress, int, JobState, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var fresh []core.Progress
	if j.seq <= len(j.events) {
		// No overflow yet: buffer positions are seq positions.
		if cursor < j.seq {
			fresh = append(fresh, j.events[cursor:]...)
			cursor = j.seq
		}
	} else {
		head := len(j.events) - 1 // slots [0, head) are exact; tail is event seq-1
		if cursor < head {
			fresh = append(fresh, j.events[cursor:head]...)
			cursor = head
		}
		if cursor < j.seq {
			fresh = append(fresh, j.events[head])
			cursor = j.seq
		}
	}
	return fresh, cursor, j.state, j.changed
}

// queryStats returns the oracle-level timing snapshot recorded for the job.
func (j *Job) queryStats() metrics.QueryStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queries
}

// phaseSummary aggregates the job's phase spans: total wall nanoseconds
// per phase name, nil while no spans are recorded.
func (j *Job) phaseSummary() map[string]int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.spans) == 0 {
		return nil
	}
	out := make(map[string]int64, 4)
	for _, sp := range j.spans {
		out[sp.Name] += sp.DurationNS
	}
	return out
}

// Submit validates a job spec, resolves its seeds, and enqueues it. ctx is
// the submitting request's context: its request ID (when the submission
// came over HTTP) is recorded on the job and threaded through every
// lifecycle log line; the job's own execution is NOT bounded by ctx.
func (s *Server) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	return s.SubmitWithID(ctx, spec, "")
}

// SubmitWithID is Submit with a caller-chosen job id — the cluster
// router's entry point, which mints the id before forwarding so placement
// is decided before the job exists. An empty id gets a server-generated
// one; a non-empty id must be in the server format and unused, else the
// submission fails (errDuplicateID maps to 409 over HTTP).
func (s *Server) SubmitWithID(ctx context.Context, spec JobSpec, id string) (*Job, error) {
	if spec.Oracle.IsExec() && !s.cfg.AllowExec {
		return nil, errExecDisabled
	}
	// Resolve the oracle now so an invalid spec fails the submission, not
	// the job. The resolved oracle is rebuilt in runJob — oracles are cheap
	// to construct, and building late keeps Job free of live resources.
	_, defaults, err := buildOracle(spec.Oracle, 1, s.cfg.DefaultOracleTimeout)
	if err != nil {
		return nil, err
	}
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = defaults
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("no seeds: pass seeds or use a builtin oracle with bundled seeds")
	}
	if err := s.checkSeedBytes(seeds); err != nil {
		return nil, err
	}
	j := &Job{task: newTask(ctx, id), Spec: spec, seedCount: len(seeds)}
	if err := s.jobs.submit(j, "oracle", spec.Oracle.String(), "seeds", len(seeds)); err != nil {
		return nil, err
	}
	return j, nil
}

// checkSeedBytes bounds the seed payload of one submission.
func (s *Server) checkSeedBytes(seeds []string) error {
	total := 0
	for _, seed := range seeds {
		total += len(seed)
	}
	if total > s.cfg.MaxSeedBytes {
		return fmt.Errorf("seed payload %d bytes exceeds limit %d", total, s.cfg.MaxSeedBytes)
	}
	return nil
}

// Job returns a submitted job by id.
func (s *Server) Job(id string) (*Job, bool) { return s.jobs.get(id) }

// Jobs lists jobs in submission order.
func (s *Server) Jobs() []*Job { return s.jobs.list() }

// CancelJob cancels a job by id: a queued job flips to canceled
// immediately (the scheduler will skip it), a running job has its context
// cancelled and reaches canceled as soon as the learner unwinds — within
// one oracle wave. Cancelling a job already in a terminal state reports
// errAlreadyTerminal.
func (s *Server) CancelJob(id string) (*Job, error) { return s.jobs.cancel(id) }

// jobDeadlineGrace is the headroom the hard per-job context deadline adds
// over the soft learner timeout. The soft timeout (core.Options.Timeout)
// finalizes the partial language gracefully; the context deadline is the
// backstop that aborts a learn whose oracle wedged past the soft deadline.
const jobDeadlineGrace = 30 * time.Second

// runJob executes one learn job on the core/oracle engine under a per-job
// context — cancelled by DELETE /v1/jobs/{id} and bounded by
// context.WithTimeout — and stores the resulting grammar.
func (s *Server) runJob(j *Job) {
	// Only exec specs use the seeds here (for their alphabet), and exec
	// oracles bundle no default seeds, so the spec's seeds are the ones.
	opts := j.Spec.resolveOptions(s.cfg, j.Spec.Seeds)
	var reqRetries *int
	if j.Spec.Options != nil {
		reqRetries = j.Spec.Options.Retries
	}
	o, defaults, err := s.buildResilientOracle(j.Spec.Oracle, opts.Workers, s.cfg.resolveRetries(reqRetries), s.met.resilientJob)
	if err != nil {
		// Validated at submission; only reachable if a builtin vanished.
		s.jobs.finish(j, err)
		return
	}
	seeds := j.Spec.Seeds
	if len(seeds) == 0 {
		seeds = defaults
	}
	// Per-query latencies mirror into the shared registry's job-source
	// histogram, and phase spans are recorded for the job record, the API,
	// and /v1/stats.
	timer := metrics.NewQueryTimer(o, s.met.oracleJob)
	spans := &telemetry.SpanRecorder{}
	opts.Progress = j.appendEvent
	opts.Tracer = spans

	// The job context is deliberately NOT derived from baseCtx: shutdown
	// waits for running learns (their grammars are worth keeping), while
	// DELETE cancels exactly one job. The hard deadline enforces the job
	// bound end to end — exec queries run under this context, so no
	// client-chosen per-query timeout can outlive it.
	hard := s.cfg.MaxJobDuration + jobDeadlineGrace
	if opts.Timeout > 0 && opts.Timeout+jobDeadlineGrace < hard {
		hard = opts.Timeout + jobDeadlineGrace
	}
	ctx, cancel := context.WithTimeout(context.Background(), hard)
	defer cancel()
	if !j.begin(cancel) {
		return
	}
	s.jobs.logger(j).Info("job running", "workers", opts.Workers, "timeout", opts.Timeout, "hard_deadline", hard)

	res, err := core.Learn(ctx, seeds, timer, opts)
	if err == nil {
		err = s.putGrammar(j.ID, j.Spec.Oracle, seeds, res)
	}
	j.mu.Lock()
	j.queries = timer.Snapshot()
	j.spans = spans.Spans()
	if err == nil {
		j.stats = res.Stats
	}
	j.mu.Unlock()
	if err != nil {
		s.jobs.finish(j, err)
		return
	}
	if s.jobs.finish(j, nil, "queries", res.Stats.OracleQueries, "seconds", res.Stats.Duration.Seconds()) == JobDone {
		s.met.oracleQueries.Add(uint64(res.Stats.OracleQueries))
	}
}

// putGrammar stores a learned grammar under id with the metadata every
// learn records: the oracle spec, the seeds, and the learn's cost.
func (s *Server) putGrammar(id string, sp oracle.Spec, seeds []string, res *core.Result) error {
	return s.store.Put(res.Grammar, GrammarMeta{
		ID:        id,
		Oracle:    sp.String(),
		Spec:      sp,
		Seeds:     seeds,
		CreatedAt: time.Now().UTC(),
		Queries:   res.Stats.OracleQueries,
		Seconds:   res.Stats.Duration.Seconds(),
		TimedOut:  res.Stats.TimedOut,
	})
}
