package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"glade/internal/campaign"
	"glade/internal/core"
	"glade/internal/oracle"
)

// CampaignSpec is the body of POST /v1/campaigns: a long-running fuzzing
// campaign against either a stored grammar (GrammarID, using its recorded
// oracle) or a fresh one (Oracle, learned before the campaign starts — the
// learned grammar is stored under the campaign's id like a normal job's).
// Exactly one of GrammarID and Oracle must be set.
type CampaignSpec struct {
	// GrammarID names a stored grammar; its recorded oracle spec answers
	// the campaign's membership queries.
	GrammarID string `json:"grammar_id,omitempty"`
	// Oracle, when GrammarID is empty, is learned from before fuzzing —
	// the campaign then runs against the freshly synthesized grammar.
	Oracle *oracle.Spec `json:"oracle,omitempty"`
	// DiffOracle, when set, makes the campaign differential: every wave is
	// also checked against this second oracle, and inputs on which the two
	// disagree are triaged into the diff_accept / diff_reject corpus
	// buckets. Exec diff oracles are gated by -allow-exec like primaries.
	DiffOracle *oracle.Spec `json:"diff_oracle,omitempty"`
	// Seeds overrides the seed inputs (default: the stored grammar's
	// recorded seeds, or the builtin oracle's bundled seeds).
	Seeds []string `json:"seeds,omitempty"`
	// DurationMS bounds the campaign (default 30s; clamped to the server's
	// -campaign-timeout). HTTP campaigns are always bounded.
	DurationMS int `json:"duration_ms,omitempty"`
	// Workers bounds concurrent oracle queries (clamped to MaxWorkers).
	Workers int `json:"workers,omitempty"`
	// Batch is the campaign wave size (default 64, max 1024).
	Batch int `json:"batch,omitempty"`
	// MutateRatio is the naive-mutant fraction per wave (default 0.25).
	MutateRatio float64 `json:"mutate_ratio,omitempty"`
	// RefreshEveryMS, when positive, re-learns the grammar at this
	// interval from discovered accept flips.
	RefreshEveryMS int `json:"refresh_every_ms,omitempty"`
	// RandSeed seeds the campaign's generators.
	RandSeed int64 `json:"rand_seed,omitempty"`
	// Retries is the per-query transient-failure retry budget for the
	// campaign's oracles (nil uses the server default, clamped
	// server-side to Config.MaxRetries).
	Retries *int `json:"retries,omitempty"`
}

// CampaignStatus is the wire form of a campaign snapshot; watch streams
// emit one per progress checkpoint.
type CampaignStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Phase is "learn" while a fresh grammar is being synthesized,
	// "fuzz" while waves run.
	Phase  string `json:"phase,omitempty"`
	Oracle string `json:"oracle"`
	// GrammarID is the grammar driving the campaign (the spec's, or the
	// campaign's own id when it learned one).
	GrammarID string     `json:"grammar_id,omitempty"`
	Created   time.Time  `json:"created_at"`
	Started   *time.Time `json:"started_at,omitempty"`
	Finished  *time.Time `json:"finished_at,omitempty"`
	Error     string     `json:"error,omitempty"`
	// Report is the latest checkpoint (final once State is done).
	Report *campaign.Report `json:"report,omitempty"`
}

// CampaignRun is one campaign owned by the server. Its lifecycle lives in
// the embedded task; the fields below are guarded by the task's mu.
type CampaignRun struct {
	*task
	Spec CampaignSpec

	// phase is "learn" or "fuzz" while the campaign runs.
	phase     string
	oracle    string
	grammarID string
	report    campaign.Report
	hasReport bool
}

func (cr *CampaignRun) base() *task { return cr.task }

func (cr *CampaignRun) snapshot() any { return cr.status() }

// status snapshots the campaign.
func (cr *CampaignRun) status() CampaignStatus {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.statusLocked()
}

func (cr *CampaignRun) statusLocked() CampaignStatus {
	st := CampaignStatus{
		ID:        cr.ID,
		State:     cr.state,
		Oracle:    cr.oracle,
		GrammarID: cr.grammarID,
		Created:   cr.created,
		Started:   timePtr(cr.started),
		Finished:  timePtr(cr.finished),
		Error:     cr.err,
	}
	if !cr.state.terminal() {
		st.Phase = cr.phase
	}
	if cr.hasReport {
		r := cr.report
		st.Report = &r
	}
	return st
}

// watch returns the current snapshot, the advanced cursor, and a channel
// closed on the next mutation; fresh reports whether the snapshot is newer
// than the caller's cursor (a zero cursor always is).
func (cr *CampaignRun) watch(cursor int) (st CampaignStatus, next int, fresh bool, changed <-chan struct{}) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	return cr.statusLocked(), cr.version + 1, cr.version >= cursor, cr.changed
}

// campaignRecord is the JSON persisted per campaign under
// <DataDir>/campaigns/<id>.json: the status plus the spec, written at
// every checkpoint and at completion so reports survive daemon restarts.
type campaignRecord struct {
	taskRecord
	Oracle    string           `json:"oracle"`
	GrammarID string           `json:"grammar_id,omitempty"`
	Spec      CampaignSpec     `json:"spec"`
	Report    *campaign.Report `json:"report,omitempty"`
}

func (cr *CampaignRun) recordLocked() any {
	rec := campaignRecord{taskRecord: cr.task.recordLocked(), Oracle: cr.oracle, GrammarID: cr.grammarID, Spec: cr.Spec}
	if cr.hasReport {
		r := cr.report
		rec.Report = &r
	}
	return rec
}

// restoreCampaign rebuilds a campaign from its record, last checkpointed
// report included.
func restoreCampaign(id string, data []byte) (*CampaignRun, error) {
	var rec campaignRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	b, err := rec.task(id)
	if err != nil {
		return nil, err
	}
	cr := &CampaignRun{task: b, Spec: rec.Spec, oracle: rec.Oracle, grammarID: rec.GrammarID}
	if rec.Report != nil {
		cr.report, cr.hasReport = *rec.Report, true
	}
	return cr, nil
}

// SubmitCampaign validates a campaign spec, resolves its grammar source and
// oracle, and enqueues it; Config.MaxCampaigns workers drain the queue.
// ctx carries request-scoped metadata (the HTTP request ID) only — it does
// not bound or cancel the campaign.
func (s *Server) SubmitCampaign(ctx context.Context, spec CampaignSpec) (*CampaignRun, error) {
	return s.SubmitCampaignWithID(ctx, spec, "")
}

// SubmitCampaignWithID is SubmitCampaign with a caller-chosen campaign
// id — the cluster router's entry point, mirroring SubmitWithID. An empty
// id gets a server-generated one; a non-empty id must be in the server
// format and unused.
func (s *Server) SubmitCampaignWithID(ctx context.Context, spec CampaignSpec, id string) (*CampaignRun, error) {
	hasGrammar := spec.GrammarID != ""
	hasOracle := spec.Oracle != nil
	if hasGrammar == hasOracle {
		return nil, fmt.Errorf("campaign spec must name exactly one of grammar_id, oracle")
	}
	if hasGrammar {
		meta, ok := s.store.Meta(spec.GrammarID)
		if !ok {
			return nil, fmt.Errorf("%w: no grammar %q", errNotFound, spec.GrammarID)
		}
		if meta.Spec.IsExec() && !s.cfg.AllowExec {
			return nil, fmt.Errorf("grammar %q fuzzes through an exec oracle and %w", spec.GrammarID, errExecDisabled)
		}
		// Validate the recorded spec still resolves (a builtin could have
		// been renamed across versions).
		if _, _, err := buildOracle(meta.Spec, 1, s.cfg.DefaultOracleTimeout); err != nil {
			return nil, fmt.Errorf("grammar %q has no usable oracle: %v", spec.GrammarID, err)
		}
	} else {
		if spec.Oracle.IsExec() && !s.cfg.AllowExec {
			return nil, errExecDisabled
		}
		_, defaults, err := buildOracle(*spec.Oracle, 1, s.cfg.DefaultOracleTimeout)
		if err != nil {
			return nil, err
		}
		if len(spec.Seeds) == 0 && len(defaults) == 0 {
			return nil, fmt.Errorf("no seeds: pass seeds or use a builtin oracle with bundled seeds")
		}
	}
	if spec.DiffOracle != nil {
		if spec.DiffOracle.IsExec() && !s.cfg.AllowExec {
			return nil, fmt.Errorf("diff oracle: %w", errExecDisabled)
		}
		if _, _, err := buildOracle(*spec.DiffOracle, 1, s.cfg.DefaultOracleTimeout); err != nil {
			return nil, fmt.Errorf("diff oracle: %w", err)
		}
	}
	if err := s.checkSeedBytes(spec.Seeds); err != nil {
		return nil, err
	}
	if spec.Batch > maxCampaignBatch {
		return nil, fmt.Errorf("batch %d exceeds limit %d", spec.Batch, maxCampaignBatch)
	}

	cr := &CampaignRun{task: newTask(ctx, id), Spec: spec, oracle: spec.oracleName(), grammarID: spec.GrammarID}
	if err := s.campaigns.submit(cr, "oracle", cr.oracle); err != nil {
		return nil, err
	}
	return cr, nil
}

// oracleName renders the campaign's oracle for status lines.
func (spec CampaignSpec) oracleName() string {
	if spec.Oracle != nil {
		return spec.Oracle.String()
	}
	return "grammar:" + spec.GrammarID
}

// maxCampaignBatch bounds the client-chosen wave size; wave memory and
// oracle fan-out scale with it.
const maxCampaignBatch = 1024

// Campaign returns a campaign by id.
func (s *Server) Campaign(id string) (*CampaignRun, bool) { return s.campaigns.get(id) }

// Campaigns lists campaigns in submission order.
func (s *Server) Campaigns() []*CampaignRun { return s.campaigns.list() }

// CancelCampaign cancels a campaign by id: a queued campaign flips to
// canceled immediately (the scheduler will skip it), a running one has its
// context cancelled — the engine finalizes its report and the run lands in
// canceled. Cancelling a campaign already in a terminal state reports
// errAlreadyTerminal.
func (s *Server) CancelCampaign(id string) (*CampaignRun, error) { return s.campaigns.cancel(id) }

// runCampaign resolves the grammar (learning one first when the spec asks
// for it), builds the engine, and drives it to completion, persisting the
// record at every checkpoint.
func (s *Server) runCampaign(cr *CampaignRun) {
	// The campaign context nests under baseCtx (shutdown still ends every
	// campaign) and adds a per-run cancel for DELETE /v1/campaigns/{id};
	// the learn phase and the waves both run under it. The hard deadline
	// bounds the whole run — learn phase (soft-bounded by MaxJobDuration
	// via resolveOptions) plus fuzzing (clamped to MaxCampaignDuration) —
	// so even an exec oracle with an enormous per-query timeout cannot
	// hold a campaign slot past the server's bounds.
	hard := s.cfg.MaxJobDuration + s.cfg.MaxCampaignDuration + jobDeadlineGrace
	ctx, cancel := context.WithTimeout(s.baseCtx, hard)
	defer cancel()
	if !cr.begin(cancel) {
		return
	}
	conf, err := s.campaignConfig(ctx, cr)
	var eng *campaign.Campaign
	if err == nil {
		eng, err = campaign.New(conf)
	}
	if err != nil {
		s.campaigns.finish(cr, err)
		return
	}
	s.campaigns.checkpoint(cr, func() { cr.phase = "fuzz" })
	s.campaigns.logger(cr).Info("campaign running",
		"oracle", cr.oracle, "duration", conf.Duration, "workers", conf.Workers)
	rep, err := eng.Run(ctx) // the final report comes back on every path
	cr.mu.Lock()
	cr.report, cr.hasReport = *rep, true
	cr.mu.Unlock()
	if err != nil {
		s.campaigns.finish(cr, err)
		return
	}
	if cr.canceledByRequest() {
		// The engine ends a cancelled run normally, report finalized.
		s.campaigns.finish(cr, context.Canceled)
		return
	}
	s.campaigns.finish(cr, nil, "inputs", rep.Inputs, "interesting", rep.Interesting())
}

// campaignConfig assembles the engine config for a run: grammar + seeds +
// oracle from either the store or a fresh learn (run under ctx, so a
// DELETE aborts even the learn phase), server-side clamps on
// duration/workers/batch, and a progress hook that feeds watchers and the
// persisted record.
func (s *Server) campaignConfig(ctx context.Context, cr *CampaignRun) (campaign.Config, error) {
	var conf campaign.Config
	spec := cr.Spec
	workers := spec.Workers
	if workers <= 0 {
		workers = s.cfg.DefaultWorkers
	}
	workers = min(workers, s.cfg.MaxWorkers)

	if spec.GrammarID != "" {
		g, err := s.store.Grammar(spec.GrammarID)
		if err != nil {
			return conf, err
		}
		meta, ok := s.store.Meta(spec.GrammarID)
		if !ok {
			return conf, fmt.Errorf("no metadata for grammar %q", spec.GrammarID)
		}
		o, _, err := s.buildResilientOracle(meta.Spec, workers, s.cfg.resolveRetries(spec.Retries), s.met.resilientCampaign)
		if err != nil {
			return conf, err
		}
		seeds := spec.Seeds
		if len(seeds) == 0 {
			seeds = meta.Seeds
		}
		conf.Grammar = g
		conf.Seeds = seeds
		conf.Oracle = o
	} else {
		// Learn a grammar first, exactly as a learn job would, then fuzz
		// with it. The grammar is stored under the campaign's id so it is
		// listable and generate-able like any other.
		cr.update(func() { cr.phase = "learn" })
		o, defaults, err := s.buildResilientOracle(*spec.Oracle, workers, s.cfg.resolveRetries(spec.Retries), s.met.resilientCampaign)
		if err != nil {
			return conf, err
		}
		seeds := spec.Seeds
		if len(seeds) == 0 {
			seeds = defaults
		}
		jobSpec := JobSpec{Seeds: seeds, Oracle: *spec.Oracle}
		opts := jobSpec.resolveOptions(s.cfg, seeds)
		opts.Workers = workers
		res, err := core.Learn(ctx, seeds, o, opts)
		if err != nil {
			return conf, err
		}
		if err := s.putGrammar(cr.ID, *spec.Oracle, seeds, res); err != nil {
			return conf, err
		}
		cr.update(func() { cr.grammarID = cr.ID })
		conf.Grammar = res.Grammar
		conf.Seeds = seeds
		conf.Oracle = o
	}

	if spec.DiffOracle != nil {
		diff, _, err := s.buildResilientOracle(*spec.DiffOracle, workers, s.cfg.resolveRetries(spec.Retries), s.met.resilientCampaign)
		if err != nil {
			return conf, fmt.Errorf("diff oracle: %w", err)
		}
		conf.DiffOracle = diff
		conf.DiffName = spec.DiffOracle.String()
	}

	duration := DefaultCampaignDuration
	if spec.DurationMS > 0 {
		duration = time.Duration(spec.DurationMS) * time.Millisecond
	}
	if duration > s.cfg.MaxCampaignDuration {
		duration = s.cfg.MaxCampaignDuration
	}
	conf.Duration = duration
	conf.Workers = workers
	conf.BatchSize = spec.Batch
	conf.MutateRatio = spec.MutateRatio
	conf.RandSeed = spec.RandSeed
	if spec.RefreshEveryMS > 0 {
		conf.RefreshEvery = time.Duration(spec.RefreshEveryMS) * time.Millisecond
		conf.RefreshTimeout = s.cfg.MaxJobDuration
	}
	conf.ReportEvery = campaignReportEvery
	engineLog := s.campaigns.logger(cr)
	conf.Logf = func(format string, args ...any) {
		engineLog.Debug(fmt.Sprintf(format, args...))
	}
	conf.QueryHist = s.met.oracleCampaign
	// Checkpoint persistence rides the progress cadence, so a crashed or
	// restarted daemon keeps the latest report.
	conf.Progress = func(rep campaign.Report) {
		s.campaigns.checkpoint(cr, func() { cr.report, cr.hasReport = rep, true })
	}
	return conf, nil
}

// DefaultCampaignDuration is the campaign runtime when the spec does not
// set one. HTTP-submitted campaigns are always duration-bounded.
const DefaultCampaignDuration = 30 * time.Second

// campaignReportEvery is the watch/persistence checkpoint cadence.
const campaignReportEvery = time.Second

// errNotFound tags submission errors caused by a missing referenced
// resource, so the HTTP layer can answer 404 instead of 400.
var errNotFound = fmt.Errorf("not found")
