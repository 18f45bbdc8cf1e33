package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/oracle"
	_ "glade/internal/oracle/registry" // named oracles for Spec.Build
	"glade/internal/targets"
)

// The learn workload: core.Learn with the default options at Workers=1
// (the CLI and service default) against the in-process §8.2 target
// oracles. Learner CPU dominates and the recognition ladder is never on
// the path. xml and lisp alternate.
//
// Each learn gets a fixed amount of seed text rather than a fixed seed
// count: learn cost follows seed bytes, and 8–16 seeds per learn made the
// per-operation cost so variable (a 40x range) that the median of a run
// moved by ±15% from one seed to the next. Many small learns of one size
// hold it to about 1%.
var learnTargets = []string{"xml", "lisp"}

const (
	learnRate      = 80.0 // learns per second of --seconds
	learnSeedBytes = 32   // seed text per learn
)

// learnOp is one learn: a target and the seeds drawn for it.
type learnOp struct {
	target string
	seeds  []string
}

// learnOps draws n operations from the seed: op i learns target
// learnTargets[i%2] from seeds that targets.SampleSeeds draws with the
// op's own rng, learnSeedBytes of text in all.
func learnOps(seed int64, n int) []learnOp {
	ts := make([]*targets.Target, len(learnTargets))
	for i, name := range learnTargets {
		ts[i] = targets.ByName(name)
	}
	ops := make([]learnOp, n)
	for i := range ops {
		rng := rngFor(seed, "learn", i)
		t := ts[i%len(ts)]
		ops[i] = learnOp{target: t.Name, seeds: seedsOfSize(t, rng, learnSeedBytes)}
	}
	return ops
}

// learnOutcome is what one learn produced.
type learnOutcome struct {
	latency time.Duration
	err     error
	res     *core.Result
}

// learnOnce runs one operation. A non-nil tracer wraps the oracle and
// receives the learner's phase spans.
func learnOnce(ctx context.Context, op learnOp, t *tracer) learnOutcome {
	start := time.Now()
	o, _, err := oracle.Spec{Type: oracle.SpecTarget, Name: op.target}.Build(oracle.BuildOptions{})
	if err != nil {
		return learnOutcome{err: err}
	}
	opts := core.DefaultOptions()
	opts.Workers = 1
	if t != nil {
		o = tracedOracle{inner: o, t: t}
		opts.Tracer = t.phaseTracer()
	}
	res, err := core.Learn(ctx, op.seeds, o, opts)
	return learnOutcome{latency: time.Since(start), err: err, res: res}
}

// checkLearn verifies one learned grammar: it accepts every seed, and the
// production ladder agrees with the Earley reference on the seeds and on
// a seeded near-miss of each.
func checkLearn(seed int64, i int, op learnOp, g *cfg.Grammar) error {
	c := cfg.Compile(g)
	rng := rngFor(seed, "learn-check", i)
	probe := make([]string, 0, 2*len(op.seeds))
	for _, s := range op.seeds {
		if !c.AcceptsEarley(s) {
			return fmt.Errorf("op %d (%s): learned grammar rejects seed %q", i, op.target, quoteShort(s))
		}
		probe = append(probe, s, mutate(rng, s))
	}
	if in, ok := rungAgreement(c, probe); !ok {
		return fmt.Errorf("op %d (%s): Accepts disagrees with AcceptsEarley on %q", i, op.target, quoteShort(in))
	}
	return nil
}

// learnState is the learn workload after setup: the operation list.
type learnState struct{ ops []learnOp }

func (*learnState) close() {}

// newLearnState draws the operation list and runs one seed-independent
// warm-up learn per target on its documentation seeds.
func newLearnState(ctx context.Context, seed int64, n int) (*learnState, error) {
	st := &learnState{ops: learnOps(seed, n)}
	for _, name := range learnTargets {
		if out := learnOnce(ctx, learnOp{target: name, seeds: targets.ByName(name).DocSeeds}, nil); out.err != nil {
			return nil, fmt.Errorf("warm-up learn %s: %w", name, out.err)
		}
	}
	return st, nil
}

// learnRow is what a run keeps of one learn. The grammar is checked as soon
// as the learn returns and then dropped, so the benchmark holds no learned
// grammars and peak_rss_mb is the learner's own.
type learnRow struct {
	latency time.Duration
	stats   core.Stats
	failed  bool  // the learn returned an error
	err     error // that error, or the failed output check
}

// learnPass runs ops in order, checking each grammar right after its learn
// and outside its latency unless check is false, and returns one row per op
// and the time spent learning.
func learnPass(ctx context.Context, seed int64, ops []learnOp, t *tracer, check bool) ([]learnRow, time.Duration) {
	rows := make([]learnRow, len(ops))
	var learning time.Duration
	for i, op := range ops {
		var out learnOutcome
		if t != nil {
			t.setOp(i)
			s := t.now()
			out = learnOnce(ctx, op, t)
			t.add(span{Name: "learn.op", Start: s, End: t.now()})
		} else {
			out = learnOnce(ctx, op, nil)
		}
		learning += out.latency
		if out.err != nil {
			rows[i] = learnRow{failed: true, err: fmt.Errorf("op %d (%s): %w", i, op.target, out.err)}
			continue
		}
		rows[i] = learnRow{latency: out.latency, stats: out.res.Stats}
		if check {
			rows[i].err = checkLearn(seed, i, op, out.res.Grammar)
		}
	}
	return rows, learning
}

// learnSummary returns the rows' latencies (+Inf for a failed learn), the
// mean oracle queries per learn and the first error.
func learnSummary(rows []learnRow) (latMS []float64, queriesPerOp float64, err error) {
	var queries float64
	for _, r := range rows {
		lat := ms(r.latency)
		if r.failed {
			lat = math.Inf(1)
		}
		latMS = append(latMS, lat)
		queries += float64(r.stats.OracleQueries)
		if r.err != nil && err == nil {
			err = r.err
		}
	}
	return latMS, queries / float64(len(rows)), err
}

func runLearn(ctx context.Context, rc runConfig) (*result, error) {
	n := rc.opCount(learnRate)
	st, setup, err := repeatSetup(func() (*learnState, error) { return newLearnState(ctx, rc.seed, n) })
	if err != nil {
		return nil, err
	}
	if !rc.trace {
		rows, learning := learnPass(ctx, rc.seed, st.ops, nil, true)
		latMS, qpo, cerr := learnSummary(rows)
		return finish(rc, latMS, cerr, endToEnd(setup, latMS, learning, float64(len(rows)), qpo)), nil
	}

	// The untraced pass skips the output checks, so the runtime metrics
	// count the learner's allocations only; the traced pass checks the
	// same grammars.
	ops := st.ops[:(n+1)/2]
	h0 := readHeap()
	plain, plainLearning := learnPass(ctx, rc.seed, ops, nil, false)
	h1 := readHeap()
	t := newTracer()
	rows, learning := learnPass(ctx, rc.seed, ops, t, true)
	latMS, _, cerr := learnSummary(rows)
	if _, _, perr := learnSummary(plain); perr != nil && cerr == nil {
		cerr = perr
	}

	layers := map[string]float64{}
	var hits, queries, checks, discarded, pairs float64
	for _, r := range rows {
		hits += float64(r.stats.CacheHits)
		queries += float64(r.stats.OracleQueries)
		checks += float64(r.stats.Checks)
		discarded += float64(r.stats.DiscardedChecks)
		pairs += float64(r.stats.MergePairs)
	}
	perOp := 1 / float64(len(rows))
	self := map[string]time.Duration{}
	var busy, wall time.Duration
	for _, s := range t.spans {
		b := t.oracleBusy(s.Start, s.End)
		switch s.Name {
		case "learn.op":
			busy += b
			wall += s.dur()
		case "core.phase1", "core.chargen", "core.phase2":
			self[s.Name] += s.dur() - b
		default:
			self["core.other"] += s.dur() - b
		}
	}
	layers["core.phase1_self_ms"] = ms(self["core.phase1"]) * perOp
	layers["core.chargen_self_ms"] = ms(self["core.chargen"]) * perOp
	layers["core.phase2_self_ms"] = ms(self["core.phase2"]) * perOp
	layers["core.other_self_ms"] = ms(self["core.other"]) * perOp
	layers["core.checks_per_op"] = checks * perOp
	layers["core.discarded_checks_per_op"] = discarded * perOp
	layers["core.merge_pairs_per_op"] = pairs * perOp
	layers["oracle.busy_ms_per_op"] = ms(busy) * perOp
	layers["oracle.share"] = busy.Seconds() / wall.Seconds()
	if hits+queries > 0 {
		layers["oracle.cache_hit_ratio"] = hits / (hits + queries)
	}
	layers["runtime.alloc_mb_per_op"], layers["runtime.gc_per_op"] = runtimePerOp(h0, h1, len(plain))
	layers["trace.overhead_pct"] = overheadPct(plainLearning, learning)
	if err := t.write(traceDir, traceFile(rc)); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return finish(rc, latMS, cerr, layerMetrics(layers)), nil
}
