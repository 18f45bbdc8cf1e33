// Package campaign implements long-running grammar-fuzzing campaigns: the
// §8.3 use of a GLADE-synthesized grammar as a fuzzer, extended from the
// one-shot sample-count comparison of cmd/glade-fuzz into an engine that
// drives a learned grammar against a membership oracle indefinitely.
//
// Each wave draws a batch of candidates — mostly grammar-fuzzed, a
// configurable fraction naively mutated — deduplicates them against a
// bounded seen-set, executes them as one concurrent wave (oracle.CheckAll
// over a metrics.QueryTimer, on the verdict path), and triages each
// oracle.Verdict into a deduplicating corpus:
//
//	accept_flip  oracle accepts, grammar cannot parse (under-approximation)
//	reject_flip  grammar-generated, oracle rejects (over-approximation)
//	new_shape    accepted input with an unseen token shape
//	crash        target died on a signal (oracle.Crash)
//	timeout      target hung until the per-query kill (oracle.Timeout)
//
// Any verdict-capable oracle populates the crash and timeout buckets —
// oracle.Exec is merely the common case. An oracle error (the oracle
// itself failing, distinct from rejecting an input) ends the campaign and
// is surfaced from Run; cancelling the Run context ends it normally.
//
// A campaign becomes differential by setting Config.DiffOracle: every wave
// then also runs through the second oracle, and inputs on which the two
// oracles' boolean answers disagree land in two more buckets —
// diff_accept (primary accepts, diff rejects) and diff_reject (the
// reverse). Generation and refresh stay driven by the primary; the diff
// oracle is a pure comparator, turning a learned grammar into a
// test-input generator for cross-implementation differential testing.
//
// The engine checkpoints a JSON Report periodically (and finally), and can
// periodically refresh its grammar by re-running core.Learn seeded with the
// accept flips it found — the campaign's own discoveries widening the
// generator that makes them.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/fuzz"
	"glade/internal/metrics"
	"glade/internal/oracle"
	"glade/internal/telemetry"
)

// maxRefreshSeeds bounds the accept flips fed to one grammar refresh —
// learning cost grows with seed count.
const maxRefreshSeeds = 8

// maxBucket bounds retained corpus entries per bucket; bucket counts keep
// growing past it.
const maxBucket = 100

// Config configures a Campaign. Grammar, Seeds, and Oracle are required;
// every other field has a usable default.
type Config struct {
	// Grammar is the synthesized grammar driving generation.
	Grammar *cfg.Grammar
	// Seeds are the example inputs the grammar was learned from; the
	// grammar fuzzer starts every input from a parsed seed tree.
	Seeds []string
	// Oracle answers membership queries with verdicts; Crash and Timeout
	// verdicts populate their corpus buckets regardless of the oracle's
	// concrete type. Wrap a plain predicate with oracle.Func. It must be
	// safe for concurrent use when Workers > 1.
	Oracle oracle.CheckOracle
	// DiffOracle, when non-nil, makes the campaign differential: every wave
	// also runs through it, and inputs where its boolean answer disagrees
	// with Oracle's are triaged into the diff_accept / diff_reject buckets.
	// Like Oracle it must be safe for concurrent use when Workers > 1.
	DiffOracle oracle.CheckOracle
	// DiffName labels the diff oracle in reports ("builtin:json-strict").
	DiffName string
	// Workers bounds concurrent oracle queries per wave (default 1).
	Workers int
	// BatchSize is the number of candidates per wave (default 64).
	BatchSize int
	// Duration bounds the campaign's runtime; zero runs until the Run
	// context is cancelled.
	Duration time.Duration
	// MutateRatio is the fraction of each wave drawn from the naive
	// byte-level mutator rather than the grammar fuzzer (default 0.25).
	// Mutated inputs can leave L(Ĉ), which is what makes accept flips —
	// and crashes — findable.
	MutateRatio float64
	// ReportPath, when non-empty, receives the checkpointed JSON report.
	ReportPath string
	// ReportEvery is the checkpoint and progress-callback interval
	// (default 2s).
	ReportEvery time.Duration
	// RefreshEvery, when positive, re-runs core.Learn at this interval
	// with the accept flips found since the last refresh as extra seeds,
	// swapping in the widened grammar. The campaign pauses while the
	// refresh learns.
	RefreshEvery time.Duration
	// RefreshTimeout bounds each refresh's learning time (default 30s).
	RefreshTimeout time.Duration
	// RandSeed seeds the campaign's generators (default 1).
	RandSeed int64
	// Progress, when non-nil, receives report snapshots at the checkpoint
	// cadence plus one final Done snapshot. It is called on the campaign
	// goroutine and must not block.
	Progress func(Report)
	// Logf, when non-nil, receives campaign log lines.
	Logf func(format string, args ...any)
	// QueryHist, when non-nil, additionally receives every primary-oracle
	// query latency (the embedding service mirrors campaign queries onto
	// its shared per-source histogram this way).
	QueryHist *telemetry.Histogram
}

func (conf Config) withDefaults() Config {
	if conf.Workers < 1 {
		conf.Workers = 1
	}
	if conf.BatchSize <= 0 {
		conf.BatchSize = 64
	}
	if conf.MutateRatio <= 0 || conf.MutateRatio > 1 {
		conf.MutateRatio = 0.25
	}
	if conf.ReportEvery <= 0 {
		conf.ReportEvery = 2 * time.Second
	}
	if conf.RefreshTimeout <= 0 {
		conf.RefreshTimeout = 30 * time.Second
	}
	if conf.RandSeed == 0 {
		conf.RandSeed = 1
	}
	return conf
}

// Campaign is one long-running fuzzing campaign. Create with New, drive
// with Run; Snapshot may be called concurrently while Run executes.
type Campaign struct {
	conf Config

	// Generators and the flip-detection recognizer; refresh swaps them
	// under mu, and nextWave/classify read them under mu. compiled is the
	// fuzzer's own compiled-grammar engine (one cfg.Compile per grammar,
	// shared between generation and triage membership).
	grammar  *cfg.Grammar
	fuzzer   *fuzz.Grammar
	compiled *cfg.Compiled
	naive    *fuzz.Naive

	// execOracle records whether the oracle runs external processes; the
	// grammar-refresh path then restricts its character-generalization
	// alphabet, since subprocess queries are too expensive for a full
	// printable-ASCII sweep (a cost heuristic only — triage itself is
	// oracle-agnostic).
	execOracle bool
	// resilient is the oracle's Resilient layer when it has one; its
	// retry/breaker counters are folded into report snapshots.
	resilient *oracle.Resilient
	timer     *metrics.QueryTimer
	// diffTimer times the second oracle of a differential campaign; nil
	// otherwise.
	diffTimer *metrics.QueryTimer
	rng       *rand.Rand
	seen      *seenSet // executed-input dedup

	mu     sync.Mutex
	report Report // counter fields only; snapshotLocked fills the rest
	corpus *corpus

	lastCheckpoint    time.Time
	lastRefresh       time.Time
	flipsSinceRefresh int
}

// candidate is one wave slot: the input and where it came from, which
// classification needs (grammar-generated inputs are in L(Ĉ) by
// construction; mutated ones must be parsed to tell).
type candidate struct {
	input       string
	fromGrammar bool
}

// New validates conf and builds the campaign: the grammar fuzzer over the
// seeds, the naive mutator, the parser for flip detection, and the query
// timer each wave fans out over. Wave verdicts flow straight from the
// oracle's Check path — no recording side-channel, no special-casing of
// exec oracles.
func New(conf Config) (*Campaign, error) {
	conf = conf.withDefaults()
	if conf.Grammar == nil {
		return nil, fmt.Errorf("campaign: Grammar is required")
	}
	if conf.Oracle == nil {
		return nil, fmt.Errorf("campaign: Oracle is required")
	}
	if len(conf.Seeds) == 0 {
		return nil, fmt.Errorf("campaign: at least one seed input is required")
	}
	fuzzer := fuzz.NewGrammar(conf.Grammar, conf.Seeds)
	c := &Campaign{
		conf:     conf,
		grammar:  conf.Grammar,
		fuzzer:   fuzzer,
		compiled: fuzzer.Compiled(),
		naive:    fuzz.NewNaive(conf.Seeds, nil),
		rng:      rand.New(rand.NewSource(conf.RandSeed)),
		seen:     newSeenSet(1 << 16),
		corpus:   newCorpus(maxBucket),
	}
	// The cost heuristic cares about the base oracle, so look through
	// resilience/chaos wrappers; the Resilient layer itself, when present,
	// feeds retry and breaker counters into the report.
	_, c.execOracle = oracle.Find[*oracle.Exec](conf.Oracle)
	c.resilient, _ = oracle.Find[*oracle.Resilient](conf.Oracle)
	c.timer = metrics.NewQueryTimer(conf.Oracle, conf.QueryHist)
	if conf.DiffOracle != nil {
		c.diffTimer = metrics.NewQueryTimer(conf.DiffOracle, nil)
		c.report.DiffOracle = conf.DiffName
		if c.report.DiffOracle == "" {
			c.report.DiffOracle = "diff"
		}
	}
	c.report.GrammarSymbols = conf.Grammar.Size()
	return c, nil
}

// Run executes the campaign until its Duration elapses or ctx is
// cancelled, whichever comes first, and returns the final report (which is
// also checkpointed to Config.ReportPath when set). Cancellation is the
// normal way an unbounded campaign ends. Run returns an error — alongside
// the finalized report — when the oracle itself fails mid-campaign or the
// final report cannot be written.
func (c *Campaign) Run(ctx context.Context) (*Report, error) {
	if c.conf.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.conf.Duration)
		defer cancel()
	}
	now := time.Now()
	c.mu.Lock()
	c.report.StartedAt = now
	c.mu.Unlock()
	c.lastCheckpoint = now
	c.lastRefresh = now
	c.logf("campaign: start (batch=%d workers=%d mutate=%.0f%%)",
		c.conf.BatchSize, c.conf.Workers, 100*c.conf.MutateRatio)
	// An immediate checkpoint gives watchers a line before the first wave
	// lands and guarantees the report file exists from the very start.
	c.checkpoint(false, true)

	var oracleErr error
	for ctx.Err() == nil {
		wave := c.nextWave()
		if len(wave) == 0 {
			// Everything this wave was a duplicate. Yield briefly so a
			// saturated (tiny-grammar) campaign does not spin hot.
			select {
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
			continue
		}
		inputs := make([]string, len(wave))
		for i, cand := range wave {
			inputs[i] = cand.input
		}
		verdicts, err := oracle.CheckAll(ctx, c.timer, inputs, c.conf.Workers)
		if err != nil {
			if ctx.Err() != nil {
				// The wave was cut short by cancellation; its partial
				// verdicts are artifacts. Discard and finish normally.
				break
			}
			if oracle.IsTransient(err) {
				// A transient outage (retries exhausted, breaker open)
				// drops this wave but must not finalize a long-running
				// campaign: count it, pause, and keep fuzzing.
				c.oracleOutage(ctx, err)
				continue
			}
			// The oracle itself failed permanently (not a rejection):
			// finalize the report gathered so far and surface the failure.
			oracleErr = err
			break
		}
		var diffVerdicts []oracle.Verdict
		if c.diffTimer != nil {
			diffVerdicts, err = oracle.CheckAll(ctx, c.diffTimer, inputs, c.conf.Workers)
			if err != nil {
				if ctx.Err() != nil {
					break
				}
				if oracle.IsTransient(err) {
					// Dropping only the comparison would turn this wave
					// into a false "no disagreements", so the whole wave
					// is dropped, like a primary-oracle outage.
					c.oracleOutage(ctx, fmt.Errorf("diff oracle: %w", err))
					continue
				}
				// A broken diff oracle ends the campaign like a broken
				// primary.
				oracleErr = fmt.Errorf("diff oracle: %w", err)
				break
			}
		}
		c.classify(wave, verdicts, diffVerdicts, c.triageParse(wave, verdicts))
		c.maybeRefresh(ctx)
		c.checkpoint(false, false)
	}

	final := c.checkpoint(true, true)
	c.logf("campaign: done (%d waves, %d inputs, %d interesting)",
		final.Waves, final.Inputs, final.Interesting())
	if c.conf.ReportPath != "" {
		if err := final.WriteFile(c.conf.ReportPath); err != nil {
			return &final, fmt.Errorf("campaign: write report: %w", err)
		}
	}
	if oracleErr != nil {
		return &final, fmt.Errorf("campaign: oracle failed: %w", oracleErr)
	}
	return &final, nil
}

// Outage pauses: how long the wave loop yields after a transient oracle
// failure before trying the next wave. A breaker-open outage pauses
// longer — the breaker will fail everything fast until its cooldown
// elapses, so spinning waves against it is pure waste.
const (
	outagePause        = 250 * time.Millisecond
	breakerOutagePause = time.Second
)

// oracleOutage records a dropped wave caused by a transient oracle
// failure and pauses the loop (ctx-aware) before the next wave.
func (c *Campaign) oracleOutage(ctx context.Context, err error) {
	c.mu.Lock()
	c.report.OracleOutages++
	n := c.report.OracleOutages
	c.mu.Unlock()
	pause := outagePause
	if errors.Is(err, oracle.ErrBreakerOpen) {
		pause = breakerOutagePause
	}
	c.logf("campaign: transient oracle outage #%d (wave dropped, pausing %v): %v", n, pause, err)
	select {
	case <-ctx.Done():
	case <-time.After(pause):
	}
}

// nextWave draws up to BatchSize fresh candidates, counting skipped
// duplicates.
func (c *Campaign) nextWave() []candidate {
	c.mu.Lock()
	defer c.mu.Unlock()
	wave := make([]candidate, 0, c.conf.BatchSize)
	dups := 0
	for i := 0; i < c.conf.BatchSize; i++ {
		var cand candidate
		if c.rng.Float64() < c.conf.MutateRatio {
			cand = candidate{input: c.naive.Next(c.rng)}
		} else {
			cand = candidate{input: c.fuzzer.Next(c.rng), fromGrammar: true}
		}
		if c.seen.contains(cand.input) {
			dups++
			continue
		}
		c.seen.add(cand.input)
		wave = append(wave, cand)
	}
	c.report.Duplicates += dups
	return wave
}

// triageParse answers, for each wave slot, whether the grammar can parse
// the candidate — the accept-flip check. Only oracle-accepted mutated
// candidates need parsing (grammar-generated inputs are in L(Ĉ) by
// construction), and the batch runs through the compiled recognizer's
// worker pool before classify takes the mutex, so triage keeps pace with
// the oracle query wave instead of parsing one candidate at a time on the
// coordinator.
func (c *Campaign) triageParse(wave []candidate, verdicts []oracle.Verdict) []bool {
	var batch []string
	var idx []int
	for i, cand := range wave {
		if verdicts[i] == oracle.Accept && !cand.fromGrammar {
			batch = append(batch, cand.input)
			idx = append(idx, i)
		}
	}
	inGrammar := make([]bool, len(wave))
	if len(batch) == 0 {
		return inGrammar
	}
	c.mu.Lock()
	compiled := c.compiled
	c.mu.Unlock()
	for j, ok := range compiled.AcceptsAll(batch, c.conf.Workers) {
		inGrammar[idx[j]] = ok
	}
	return inGrammar
}

// classify triages one executed wave into the corpus and counters, keyed
// directly on each slot's oracle.Verdict — any verdict-capable oracle
// populates the crash and timeout buckets. diffVerdicts, non-nil only in
// differential campaigns, is the second oracle's answer per slot;
// inGrammar is triageParse's answer per wave slot.
func (c *Campaign) classify(wave []candidate, verdicts, diffVerdicts []oracle.Verdict, inGrammar []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.report.Waves++
	for i, cand := range wave {
		c.report.Inputs++
		if diffVerdicts != nil && verdicts[i].Accepted() != diffVerdicts[i].Accepted() {
			c.report.DiffDisagreements++
			bucket := BucketDiffReject
			if verdicts[i].Accepted() {
				bucket = BucketDiffAccept
			}
			c.corpus.add(Entry{Input: cand.input, Bucket: bucket, Wave: c.report.Waves})
		}
		switch verdicts[i] {
		case oracle.Crash:
			c.report.Rejected++
			c.corpus.add(Entry{Input: cand.input, Bucket: BucketCrash, Wave: c.report.Waves})
		case oracle.Timeout:
			c.report.Rejected++
			c.corpus.add(Entry{Input: cand.input, Bucket: BucketTimeout, Wave: c.report.Waves})
		case oracle.Accept:
			c.report.Accepted++
			// Mutated inputs that the oracle accepts but the grammar cannot
			// parse show where the grammar under-approximates; they are the
			// refresh seeds. triageParse already parsed exactly these.
			if !cand.fromGrammar && !inGrammar[i] {
				if c.corpus.add(Entry{Input: cand.input, Bucket: BucketAcceptFlip, Wave: c.report.Waves}) {
					c.flipsSinceRefresh++
				}
			}
			if shape := shapeOf(cand.input); c.corpus.newShape(shape) {
				c.corpus.add(Entry{Input: cand.input, Bucket: BucketShape, Shape: shape, Wave: c.report.Waves})
			}
		default:
			c.report.Rejected++
			if cand.fromGrammar {
				c.corpus.add(Entry{Input: cand.input, Bucket: BucketRejectFlip, Wave: c.report.Waves})
			}
		}
	}
}

// maybeRefresh re-learns the grammar when the refresh interval has elapsed
// and new accept flips exist to learn from. The refreshed grammar swaps in
// atomically for subsequent waves; on failure the old grammar stays.
func (c *Campaign) maybeRefresh(ctx context.Context) {
	if c.conf.RefreshEvery <= 0 || time.Since(c.lastRefresh) < c.conf.RefreshEvery {
		return
	}
	c.lastRefresh = time.Now()
	c.mu.Lock()
	flips := c.corpus.recent(BucketAcceptFlip, maxRefreshSeeds)
	fresh := c.flipsSinceRefresh
	c.mu.Unlock()
	if fresh == 0 || len(flips) == 0 {
		return
	}
	seeds := append(append([]string(nil), c.conf.Seeds...), flips...)
	opts := core.DefaultOptions()
	opts.Workers = c.conf.Workers
	opts.Timeout = c.conf.RefreshTimeout
	opts.RandSeed = c.conf.RandSeed
	if c.execOracle {
		opts.GenAlphabet = core.ExecAlphabet(seeds)
	}
	// The campaign context cancels the refresh learn directly now; the
	// soft-timeout clamp remains so a refresh starting just before a
	// Duration deadline finalizes gracefully instead of being aborted with
	// its work discarded. A refresh with almost no time left is not worth
	// starting at all.
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining < 2*time.Second {
			return
		}
		if remaining < opts.Timeout {
			opts.Timeout = remaining
		}
	}
	if ctx.Err() != nil {
		return
	}
	c.logf("campaign: refreshing grammar with %d accept flips", len(flips))
	// Learning through the timer keeps refresh queries in the report's
	// oracle stats. core.Learn adds its own verdict memo on top and sends
	// its waves at width Workers.
	res, err := core.Learn(ctx, seeds, c.timer, opts)
	if err != nil {
		c.logf("campaign: refresh failed, keeping current grammar: %v", err)
		return
	}
	fuzzer := fuzz.NewGrammar(res.Grammar, seeds)
	c.mu.Lock()
	c.grammar = res.Grammar
	c.fuzzer = fuzzer
	c.compiled = fuzzer.Compiled()
	c.flipsSinceRefresh = 0
	c.report.Refreshes++
	c.report.GrammarSymbols = res.Grammar.Size()
	c.mu.Unlock()
	c.logf("campaign: refreshed grammar (%d symbols, %.2fs)",
		res.Grammar.Size(), res.Stats.Duration.Seconds())
}

// checkpoint, at the checkpoint cadence (or when forced), snapshots the
// report, writes the report file, and invokes the Progress callback. Off
// cadence it returns a zero Report without snapshotting — it runs after
// every wave, and assembling a snapshot copies the whole retained corpus
// under the mutex watchers contend on.
func (c *Campaign) checkpoint(done, force bool) Report {
	now := time.Now()
	if !force && now.Sub(c.lastCheckpoint) < c.conf.ReportEvery {
		return Report{}
	}
	c.lastCheckpoint = now
	c.mu.Lock()
	r := c.snapshotLocked(done, now)
	c.mu.Unlock()
	if c.conf.ReportPath != "" && !done { // the final write happens in Run
		if err := r.WriteFile(c.conf.ReportPath); err != nil {
			c.logf("campaign: checkpoint write failed: %v", err)
		}
	}
	if c.conf.Progress != nil {
		c.conf.Progress(r)
	}
	return r
}

// snapshotLocked assembles a full Report from the live counters. Callers
// hold c.mu.
func (c *Campaign) snapshotLocked(done bool, now time.Time) Report {
	r := c.report
	r.UpdatedAt = now
	if !r.StartedAt.IsZero() {
		r.ElapsedSeconds = now.Sub(r.StartedAt).Seconds()
	}
	r.Buckets = c.corpus.bucketCounts()
	r.Corpus = append([]Entry(nil), c.corpus.entries...)
	r.Queries = c.timer.Snapshot()
	if c.diffTimer != nil {
		qs := c.diffTimer.Snapshot()
		r.DiffQueries = &qs
	}
	if c.resilient != nil {
		st := c.resilient.Stats()
		r.OracleRetries = st.Retries
		r.BreakerOpens = st.BreakerOpens
	}
	r.Done = done
	return r
}

// Snapshot returns the campaign's current report; safe to call
// concurrently with Run.
func (c *Campaign) Snapshot() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked(false, time.Now())
}

func (c *Campaign) logf(format string, args ...any) {
	if c.conf.Logf != nil {
		c.conf.Logf(format, args...)
	}
}
