package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/oracle"
	"glade/internal/rex"
	"glade/internal/telemetry"
)

// Options configures the learner. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Phase2 enables the recursive-merge phase (§5). Disabling it yields
	// the "P1" variant evaluated in Figure 4.
	Phase2 bool
	// CharGen enables character generalization (§6.2).
	CharGen bool
	// GenAlphabet is the alphabet Σ used by character generalization.
	// Empty disables the phase regardless of CharGen.
	GenAlphabet bytesets.Set
	// DiscardMemberChecks discards checks already in the current language
	// L̂i (§4.3): membership is tested first, and a discarded check is never
	// sent to the oracle. Off, every check is asked of the oracle, and a
	// member the oracle rejects fails its candidate.
	DiscardMemberChecks bool
	// ReverseOrdering inverts the §4.2 candidate ordering heuristic
	// (longest α1 first, shortest α2 first) — an ablation knob showing the
	// ordering drives generality; never useful in production.
	ReverseOrdering bool
	// Workers bounds the number of concurrent oracle queries. Values
	// below 2 learn strictly sequentially, exactly as the paper's
	// algorithm. When above 1, independent candidate checks within a
	// generalization step are speculatively issued as batched waves
	// through the oracle's bulk path (oracle.BatchCheckOracle) ahead of the
	// sequential §4.2 candidate scan; the scan itself — and therefore the
	// chosen generalizations, the RandSeed-driven sampling, and the
	// synthesized grammar — is byte-identical regardless of Workers,
	// provided Timeout does not fire (a timed-out run truncates the scan
	// at a wall-clock-dependent point at any worker count). The oracle
	// must be safe for concurrent use when Workers > 1.
	Workers int
	// MergeSampleChecks is the number of extra sampled residuals per
	// direction used to validate a phase-two merge, beyond the paper's
	// doubled-seed residual. Sampling draws from the already-generalized
	// repetition body, so it exercises the interaction between merging and
	// character classes that the fixed residual cannot see. Zero keeps the
	// paper's minimal check set.
	MergeSampleChecks int
	// RandSeed seeds the learner's internal sampling (merge checks).
	RandSeed int64
	// Timeout bounds total learning time; zero means no bound. On timeout
	// the learner finalizes the current language instead of failing.
	Timeout time.Duration
	// Progress, when non-nil, receives phase-level progress events (one per
	// seed entering phase one, one per character-generalization literal,
	// one per phase-two wave, and a terminal "done"). The callback runs
	// synchronously on the learning goroutine, so it must be fast and must
	// not call back into the learner.
	Progress func(Progress)
	// Tracer, when non-nil, receives one completed telemetry.Span per
	// learner phase: "seeds" (validating the seed inputs), then "phase1"
	// and "chargen" per generalized seed, "phase2", and "finalize". Spans
	// are contiguous — each starts where the previous one ended — so their
	// summed wall time equals the run's wall time. Span attributes carry
	// the phase's deltas: checks, discarded member checks, candidates,
	// oracle queries, cache hits, speculative wave count, and speculation
	// hit-rate. Emission happens synchronously on the learning goroutine;
	// Tracer implementations must be fast and must not call back into the
	// learner.
	Tracer telemetry.Tracer
	// Logf, when non-nil, receives a Figure 2-style trace of every chosen
	// generalization step.
	Logf func(format string, args ...any)
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: both phases on, character generalization over printable
// ASCII plus tab/newline, member-check discarding on.
func DefaultOptions() Options {
	return Options{
		Phase2:              true,
		CharGen:             true,
		GenAlphabet:         bytesets.PrintableWS(),
		DiscardMemberChecks: true,
		MergeSampleChecks:   2,
		RandSeed:            1,
	}
}

// Stats reports what the learner did. The JSON names are the glade-serve
// wire format.
type Stats struct {
	Seeds           int           `json:"seeds"`            // seeds provided
	SeedsSkipped    int           `json:"seeds_skipped"`    // seeds already in the language learned so far (§6.1)
	Candidates      int           `json:"candidates"`       // generalization candidates considered
	Checks          int           `json:"checks"`           // check strings evaluated
	DiscardedChecks int           `json:"discarded_checks"` // checks discarded as members of L̂i, never sent to the oracle
	CharGenChecks   int           `json:"chargen_checks"`   // character-generalization checks
	Waves           int           `json:"waves"`            // speculative prefetch waves issued (Workers > 1)
	MergePairs      int           `json:"merge_pairs"`      // phase-two pairs examined
	Merged          int           `json:"merged"`           // phase-two merges accepted
	OracleQueries   int           `json:"queries"`          // de-duplicated queries reaching the oracle
	CacheHits       int           `json:"cache_hits"`       // checks answered by the learner's verdict memo
	TimedOut        bool          `json:"timed_out"`
	Duration        time.Duration `json:"duration_ns"`
}

// Result is the outcome of Learn.
type Result struct {
	// Grammar is the synthesized context-free grammar Ĉ.
	Grammar *cfg.Grammar
	// Regex is the phase-one/char-gen regular expression (the union over
	// seeds), before phase-two recursion is added.
	Regex rex.Expr
	Stats Stats
}

// Learn synthesizes a context-free grammar approximating the language of
// the oracle from the given seed inputs (Algorithm 1 plus the extensions of
// §6). Every seed must be accepted by the oracle; a rejected seed is an
// error, since the algorithm's invariants assume Ein ⊆ L*.
//
// ctx cancels the run: cancellation is observed between oracle waves and
// inside the batched fan-out, so Learn returns promptly — within one wave
// of oracle queries — wrapping ctx.Err(). An oracle error (the oracle
// itself failed, as opposed to rejecting an input) likewise aborts the run
// and is surfaced; it is never silently treated as a rejection. Unlike
// Options.Timeout, which finalizes the language learned so far, both abort
// paths discard the partial result.
func Learn(ctx context.Context, seeds []string, o oracle.CheckOracle, opts Options) (*Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: no seed inputs")
	}
	l := newLearner(ctx, o, opts)
	start := time.Now()
	l.spanClock = start

	sm := l.markSpan()
	l.askAll(seeds)
	if l.oracleErr != nil {
		return nil, fmt.Errorf("core: checking seeds: %w", l.oracleErr)
	}
	for i, seed := range seeds {
		if v := l.memo[seed]; v != oracle.Accept {
			return nil, fmt.Errorf("core: seed %d (%q) is rejected by the oracle (%v)", i, seed, v)
		}
	}
	l.endSpan("seeds", -1, sm)

	l.emit(Progress{Phase: "seeds", Seeds: len(seeds)})

	// Phase one (and character generalization) per seed, with the §6.1
	// optimization: a seed already matched by the language learned from
	// earlier seeds is skipped.
	for i, seed := range seeds {
		l.stats.Seeds++
		if len(l.roots) > 0 && l.currentMatcher().Match(seed) {
			l.stats.SeedsSkipped++
			continue
		}
		l.emit(Progress{Phase: "phase1", Seed: i + 1, Seeds: len(seeds)})
		sm = l.markSpan()
		root := l.phase1(seed)
		l.endSpan("phase1", i, sm)
		if opts.CharGen {
			l.emit(Progress{Phase: "chargen", Seed: i + 1, Seeds: len(seeds)})
			sm = l.markSpan()
			l.charGen(root)
			l.endSpan("chargen", i, sm)
		}
	}

	// Phase two across all seed components.
	allStars := stars(l.roots)
	var uf *unionFind
	if opts.Phase2 {
		sm = l.markSpan()
		uf = l.phase2(allStars)
		l.endSpan("phase2", -1, sm)
	} else {
		uf = newUnionFind(len(allStars))
	}

	// An aborted run (cancellation or oracle failure) must not hand back a
	// grammar synthesized from artifact rejections; the soft Timeout is the
	// graceful-finalize path, these two are not.
	if l.oracleErr != nil {
		return nil, fmt.Errorf("core: learning aborted: %w", l.oracleErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: learning aborted: %w", err)
	}

	sm = l.markSpan()
	g := toCFG(l.roots, allStars, uf)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: synthesized grammar invalid: %v", err)
	}

	kids := make([]rex.Expr, len(l.roots))
	for i, r := range l.roots {
		kids[i] = toRex(r)
	}
	l.endSpan("finalize", -1, sm)
	l.stats.Duration = time.Since(start)
	l.emit(Progress{Phase: "done", Seeds: len(seeds)})
	return &Result{Grammar: g, Regex: rex.Union(kids...), Stats: l.stats}, nil
}

// newLearner prepares the state of one Learn invocation. The learner
// memoizes verdicts itself (learner.memo), so a repeated check never
// reaches o twice. Below the memo, at Workers > 1, a worker pool fans each
// wave out over o; at Workers <= 1 the pool is omitted and every query is
// issued sequentially, exactly as the paper's algorithm.
func newLearner(ctx context.Context, o oracle.CheckOracle, opts Options) *learner {
	workers := max(opts.Workers, 1)
	inner := o
	if workers > 1 {
		inner = oracle.Parallel(o, workers)
	}
	rngSeed := opts.RandSeed
	if rngSeed == 0 {
		rngSeed = 1
	}
	l := &learner{
		ctx:     ctx,
		opts:    opts,
		inner:   inner,
		memo:    map[string]oracle.Verdict{},
		workers: workers,
		rng:     rand.New(rand.NewSource(rngSeed)),
	}
	if opts.Timeout > 0 {
		l.deadline = time.Now().Add(opts.Timeout)
	}
	return l
}
