package main

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"glade/internal/campaign"
	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/fuzz"
	"glade/internal/oracle"
)

// The campaign workload: campaign.Run, as glade-fuzz -campaign runs it,
// with a grammar learned for program:sed during setup, the in-process sed
// oracle, Workers=2, the default batch size and mutate ratio, and refresh
// off. Each operation is a fresh campaign with a seed-drawn RandSeed that
// stops after a fixed budget of oracle queries — fixed work, not a fixed
// duration. The generator, the naive mutator, the seen-set and triage
// dominate here; the oracle is cheap.
const (
	campaignRate    = 12.0 // campaigns per second of --seconds
	campaignBudget  = 1024 // oracle queries per campaign
	campaignWorkers = 2
	campaignProgram = "sed"
)

// budgetOracle answers at most budget queries and then cancels the
// campaign, so the query that overdraws the budget aborts its wave and
// every campaign with the same RandSeed executes the same inputs.
type budgetOracle struct {
	inner  oracle.CheckOracle
	budget int64
	used   atomic.Int64
	cancel context.CancelFunc
}

func (b *budgetOracle) Check(ctx context.Context, input string) (oracle.Verdict, error) {
	if b.used.Add(1) > b.budget {
		b.cancel()
		return oracle.Reject, context.Canceled
	}
	return b.inner.Check(ctx, input)
}

// learnProgram learns a grammar for a registered oracle from its bundled
// seeds at Workers=1.
func learnProgram(ctx context.Context, spec oracle.Spec) (*core.Result, []string, error) {
	o, seeds, err := spec.Build(oracle.BuildOptions{})
	if err != nil {
		return nil, nil, err
	}
	opts := core.DefaultOptions()
	opts.Workers = 1
	res, err := core.Learn(ctx, seeds, o, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("learning %s: %w", spec, err)
	}
	return res, seeds, nil
}

// campaignState is the campaign workload after setup.
type campaignState struct {
	grammar   *cfg.Grammar
	seeds     []string
	compiled  *cfg.Compiled
	randSeeds []int64
}

func (*campaignState) close() {}

func newCampaignState(ctx context.Context, seed int64, n int) (*campaignState, error) {
	res, seeds, err := learnProgram(ctx, oracle.Spec{Type: oracle.SpecProgram, Name: campaignProgram})
	if err != nil {
		return nil, err
	}
	st := &campaignState{grammar: res.Grammar, seeds: seeds, compiled: cfg.Compile(res.Grammar)}
	rng := rngFor(seed, "campaign", 0)
	for i := 0; i < n; i++ {
		st.randSeeds = append(st.randSeeds, 1+rng.Int63n(math.MaxInt32))
	}
	// Warm-up: one campaign with a fixed RandSeed, so setup cost does not
	// depend on the run seed.
	if out := st.once(ctx, 1, nil); out.err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", out.err)
	}
	return st, nil
}

// campaignOutcome is one campaign's report and wall time.
type campaignOutcome struct {
	latency time.Duration
	report  *campaign.Report
	err     error
}

// once runs one budgeted campaign. A non-nil tracer times every oracle
// query.
func (st *campaignState) once(ctx context.Context, randSeed int64, t *tracer) campaignOutcome {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	o, _, err := oracle.Spec{Type: oracle.SpecProgram, Name: campaignProgram}.Build(oracle.BuildOptions{})
	if err != nil {
		return campaignOutcome{err: err}
	}
	if t != nil {
		o = tracedOracle{inner: o, t: t}
	}
	c, err := campaign.New(campaign.Config{
		Grammar:  st.grammar,
		Seeds:    st.seeds,
		Oracle:   &budgetOracle{inner: o, budget: campaignBudget, cancel: cancel},
		Workers:  campaignWorkers,
		RandSeed: randSeed,
	})
	if err != nil {
		return campaignOutcome{err: err}
	}
	rep, err := c.Run(ctx)
	return campaignOutcome{latency: time.Since(start), report: rep, err: err}
}

// check verifies one campaign report: no oracle error, every executed
// input has a verdict, and the grammar's Earley rung rejects every accept
// flip (the oracle accepted it, so the grammar must not).
func (st *campaignState) check(i int, out campaignOutcome) error {
	if out.err != nil {
		return fmt.Errorf("campaign %d: %w", i, out.err)
	}
	r := out.report
	if r.Inputs == 0 || r.Inputs != r.Accepted+r.Rejected {
		return fmt.Errorf("campaign %d: inputs %d != accepted %d + rejected %d", i, r.Inputs, r.Accepted, r.Rejected)
	}
	for _, e := range r.Corpus {
		if e.Bucket == campaign.BucketAcceptFlip && st.compiled.AcceptsEarley(e.Input) {
			return fmt.Errorf("campaign %d: accept flip %q parses under the grammar", i, quoteShort(e.Input))
		}
	}
	return nil
}

// campaignRow is what a run keeps of one campaign: its latency and report
// counters. The report is checked as soon as the campaign returns and its
// corpus dropped, so peak_rss_mb is the campaign engine's own.
type campaignRow struct {
	latency                                    time.Duration
	inputs, accepted, waves, dups, interesting int
	failed                                     bool  // Run returned an error
	err                                        error // that error, or the failed output check
}

// pass runs one campaign per RandSeed, checking each report right after
// its campaign and outside its latency unless check is false, and returns
// one row per campaign and the time spent fuzzing.
func (st *campaignState) pass(ctx context.Context, randSeeds []int64, t *tracer, check bool) ([]campaignRow, time.Duration) {
	rows := make([]campaignRow, len(randSeeds))
	var fuzzing time.Duration
	for i, rs := range randSeeds {
		var out campaignOutcome
		if t != nil {
			t.setOp(i)
			s := t.now()
			out = st.once(ctx, rs, t)
			t.add(span{Name: "campaign.op", Start: s, End: t.now()})
		} else {
			out = st.once(ctx, rs, nil)
		}
		fuzzing += out.latency
		rows[i] = campaignRow{latency: out.latency, failed: out.err != nil}
		if check || out.err != nil {
			rows[i].err = st.check(i, out)
		}
		if r := out.report; r != nil {
			rows[i].inputs, rows[i].accepted, rows[i].waves = r.Inputs, r.Accepted, r.Waves
			rows[i].dups, rows[i].interesting = r.Duplicates, r.Interesting()
		}
	}
	return rows, fuzzing
}

// campaignSummary returns the rows' latencies (+Inf for a failed
// campaign), the inputs executed and the first error.
func campaignSummary(rows []campaignRow) (latMS []float64, inputs float64, err error) {
	for _, r := range rows {
		lat := ms(r.latency)
		if r.failed {
			lat = math.Inf(1)
		}
		latMS = append(latMS, lat)
		inputs += float64(r.inputs)
		if r.err != nil && err == nil {
			err = r.err
		}
	}
	return latMS, inputs, err
}

// replayFuzz times the generators the campaign draws from, outside the
// campaign: fuzz.Grammar.Next and fuzz.Naive.Next with a seeded rng.
func (st *campaignState) replayFuzz(seed int64) (sampleUS, naiveUS float64) {
	const draws = 4096
	g := fuzz.NewGrammar(st.grammar, st.seeds)
	nv := fuzz.NewNaive(st.seeds, nil)
	rng := rngFor(seed, "fuzz-replay", 0)
	start := time.Now()
	for i := 0; i < draws; i++ {
		g.Next(rng)
	}
	sampleUS = float64(time.Since(start)) / float64(time.Microsecond) / draws
	start = time.Now()
	for i := 0; i < draws; i++ {
		nv.Next(rng)
	}
	naiveUS = float64(time.Since(start)) / float64(time.Microsecond) / draws
	return sampleUS, naiveUS
}

func runCampaign(ctx context.Context, rc runConfig) (*result, error) {
	n := rc.opCount(campaignRate)
	st, setup, err := repeatSetup(func() (*campaignState, error) { return newCampaignState(ctx, rc.seed, n) })
	if err != nil {
		return nil, err
	}
	if !rc.trace {
		rows, fuzzing := st.pass(ctx, st.randSeeds, nil, true)
		latMS, inputs, cerr := campaignSummary(rows)
		return finish(rc, latMS, cerr, endToEnd(setup, latMS, fuzzing, inputs, inputs/float64(len(rows)))), nil
	}

	// The untraced pass skips the output checks, so the runtime metrics
	// count the campaign engine's allocations only; the traced pass checks
	// the same campaigns.
	seeds := st.randSeeds[:(n+1)/2]
	h0 := readHeap()
	plain, plainFuzzing := st.pass(ctx, seeds, nil, false)
	h1 := readHeap()
	t := newTracer()
	rows, fuzzing := st.pass(ctx, seeds, t, true)
	latMS, inputs, cerr := campaignSummary(rows)
	if _, _, perr := campaignSummary(plain); perr != nil && cerr == nil {
		cerr = perr
	}
	var waves, dups, found float64
	for _, r := range rows {
		waves += float64(r.waves)
		dups += float64(r.dups)
		found += float64(r.interesting)
	}
	var wall time.Duration
	for _, s := range t.spans {
		wall += s.dur()
	}
	perOp := 1 / float64(len(rows))
	busy := t.queryTime()
	layers := map[string]float64{
		"oracle.busy_ms_per_op":        ms(busy) * perOp,
		"oracle.share":                 busy.Seconds() / wall.Seconds(),
		"campaign.waves_per_op":        waves * perOp,
		"campaign.dup_ratio":           dups / (inputs + dups),
		"campaign.findings_per_kinput": 1000 * found / inputs,
		"trace.overhead_pct":           overheadPct(plainFuzzing, fuzzing),
	}
	layers["fuzz.sample_us"], layers["fuzz.naive_us"] = st.replayFuzz(rc.seed)
	layers["runtime.alloc_mb_per_op"], layers["runtime.gc_per_op"] = runtimePerOp(h0, h1, len(plain))
	if err := t.write(traceDir, traceFile(rc)); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return finish(rc, latMS, cerr, layerMetrics(layers)), nil
}
