package core

import (
	"context"
	"math/rand"
	"time"

	"glade/internal/oracle"
	"glade/internal/rex"
)

// learner holds the mutable state of one Learn invocation.
type learner struct {
	ctx   context.Context
	opts  Options
	stats Stats
	rng   *rand.Rand

	// inner answers the queries the memo cannot: the caller's oracle, behind
	// a worker pool (oracle.Parallel) when workers > 1.
	inner oracle.CheckOracle
	// memo holds every verdict inner returned, so a repeated check is
	// answered from memory and counted in Stats.CacheHits instead of
	// Stats.OracleQueries. A failed query or wave memoizes nothing. Only the
	// learning goroutine touches it (waves fan out below it), so it needs no
	// lock.
	memo map[string]oracle.Verdict

	// workers is the resolved Options.Workers (at least 1). Above 1 the
	// candidate scans prefetch check waves through the oracle's bulk path.
	workers int

	// oracleErr is the first oracle failure or ctx cancellation observed.
	// Once set, every subsequent check answers false without querying, the
	// scans wind down at their next stopped() poll, and Learn surfaces the
	// error instead of a grammar. The learner runs single-threaded (waves
	// fan out below the memo), so no lock is needed.
	oracleErr error

	// roots are the per-seed trees learned so far (including the tree
	// currently being generalized); their alternation is the current
	// language L̂i.
	roots []*node

	// matcher recognizes L̂i, the alternation of roots. matcherDirty makes
	// currentMatcher recompile it, so every mutation that changes L̂i must
	// set it: appending a root, accepting a repetition (acceptRep) or an
	// alternation (generalizeAlt), and rewriting a literal into classes
	// (charGen). Demoting a hole (rep→const, alt→rep) leaves L̂i as it was,
	// because toRex already reads a hole as its literal.
	matcher      *rex.Matcher
	matcherDirty bool
	// known holds the current matcher's membership answers for the checks
	// of the last screened wave, so the scan that follows does not match
	// them again. Recompiling the matcher clears it.
	known map[string]bool

	deadline time.Time
	step     int

	// spanClock is the end time of the last emitted phase span; markSpan
	// starts the next span there so spans tile the run without gaps. Zero
	// until the first span closes (or when Options.Tracer is nil).
	spanClock time.Time
}

// accepts answers one membership check through the memo, mapping the
// verdict to the boolean the scans decide on (Crash and Timeout are
// rejections, as in the paper's "program reports an error" reading). An
// oracle error or cancellation trips oracleErr and reads as false — the
// scan stops generalizing at its next stopped() poll and Learn returns the
// error, so the artifact false never reaches a synthesized grammar.
func (l *learner) accepts(s string) bool {
	if l.oracleErr != nil {
		return false
	}
	v, ok := l.memo[s]
	if ok {
		l.stats.CacheHits++
		return v == oracle.Accept
	}
	l.stats.OracleQueries++
	v, err := l.inner.Check(l.ctx, s)
	if err != nil {
		l.oracleErr = err
		return false
	}
	l.memo[s] = v
	return v == oracle.Accept
}

// askAll answers a wave of checks into the memo: each distinct check the
// memo cannot answer goes to the oracle once, all of them in one bulk call
// (concurrent when inner is the worker pool), and every repeat or
// already-answered check counts as a cache hit. An oracle error or
// cancellation trips oracleErr and memoizes nothing from the wave.
func (l *learner) askAll(checks []string) {
	ask := make([]string, 0, len(checks))
	sent := make(map[string]struct{}, len(checks))
	for _, c := range checks {
		_, answered := l.memo[c]
		if _, dup := sent[c]; answered || dup {
			l.stats.CacheHits++
			continue
		}
		sent[c] = struct{}{}
		ask = append(ask, c)
	}
	if len(ask) == 0 {
		return
	}
	l.stats.OracleQueries += len(ask)
	vs, err := oracle.CheckAll(l.ctx, l.inner, ask, 1)
	if err != nil {
		l.oracleErr = err
		return
	}
	for i, c := range ask {
		l.memo[c] = vs[i]
	}
}

// prefetch issues a wave of independent checks through askAll, so the
// sequential decision scan that follows answers from the memo.
// Speculative: checks past the scan's accept point cost extra underlying
// queries but never change any decision. Callers pass only checks outside
// L̂i (see screen), since the scan never sends members.
func (l *learner) prefetch(checks []string) {
	if l.oracleErr != nil || len(checks) <= 1 {
		return
	}
	l.stats.Waves++
	l.askAll(checks)
}

// screen answers membership in L̂i for a wave's checks, keeping the answers
// in l.known for the scan, and returns the checks that are not members —
// the only ones the scan may send to the oracle. With member discarding off
// every check is returned.
func (l *learner) screen(checks []string) []string {
	if !l.opts.DiscardMemberChecks {
		return checks
	}
	m := l.currentMatcher()
	if l.known == nil {
		l.known = make(map[string]bool, len(checks))
	}
	clear(l.known)
	ask := make([]string, 0, len(checks))
	for _, c := range checks {
		member := m.Match(c)
		l.known[c] = member
		if !member {
			ask = append(ask, c)
		}
	}
	return ask
}

// expired reports whether the learning deadline has passed; once true, the
// learner stops proposing generalizations and finalizes what it has.
func (l *learner) expired() bool {
	if l.deadline.IsZero() {
		return false
	}
	if time.Now().After(l.deadline) {
		l.stats.TimedOut = true
		return true
	}
	return false
}

// stopped reports whether the learner must stop proposing generalizations:
// the run was cancelled, the oracle failed, or the soft deadline passed.
// The scans poll it between candidate waves, which bounds how much work a
// cancellation can leave in flight to one wave.
func (l *learner) stopped() bool {
	if l.oracleErr != nil {
		return true
	}
	if err := l.ctx.Err(); err != nil {
		l.oracleErr = err
		return true
	}
	return l.expired()
}

// currentMatcher returns a matcher for L̂i (holes read as literals),
// recompiling only after tree mutations.
func (l *learner) currentMatcher() *rex.Matcher {
	if l.matcher == nil || l.matcherDirty {
		kids := make([]rex.Expr, len(l.roots))
		for i, r := range l.roots {
			kids[i] = toRex(r)
		}
		l.matcher = rex.Compile(rex.Union(kids...))
		l.matcherDirty = false
		clear(l.known)
	}
	return l.matcher
}

// passes implements the check discipline of §4.3. With DiscardMemberChecks
// on, a check already in the current language L̂i passes and is discarded
// from S without being sent to the oracle; only a non-member is queried.
// Membership goes first because a query may run the program under test,
// while the matcher answers in memory. The answer (member, or accepted by
// the oracle) does not depend on the order, so the order changes which
// checks cost a query, never a decision. With the option off, every check
// is queried.
func (l *learner) passes(check string) bool {
	return l.decide(check, l.opts.DiscardMemberChecks && l.member(check))
}

// decide counts one check whose membership in L̂i is already known, and
// asks the oracle only when it is not a member.
func (l *learner) decide(check string, member bool) bool {
	l.stats.Checks++
	if member {
		l.stats.DiscardedChecks++
		return true
	}
	return l.accepts(check)
}

// member reports whether check ∈ L̂i, reusing the answer screen computed
// for the current wave when there is one.
func (l *learner) member(check string) bool {
	m := l.currentMatcher()
	if v, ok := l.known[check]; ok {
		return v
	}
	return m.Match(check)
}

// waves sizes the chunks of an ordered candidate scan. In speculative mode
// (Workers > 1) wave sizes ramp up from small — the §4.2 ordering usually
// accepts an early candidate, so small first waves bound the queries wasted
// past the accept point — doubling toward a cap that keeps every worker
// busy through long failure runs. Scans whose every result is consumed
// (character generalization) disable the ramp and issue full-width waves
// immediately. In sequential mode waves degenerate to fixed chunks that
// merely bound the deadline-check interval; no prefetch is issued, so the
// query sequence is exactly the paper's.
type waves struct {
	cur, max  int
	speculate bool
}

// seqChunk is the sequential-mode scan chunk between deadline checks.
const seqChunk = 64

func (l *learner) newWaves(ramp bool) *waves {
	if l.workers > 1 {
		if ramp {
			return &waves{cur: max(2, l.workers/2), max: l.workers * 4, speculate: true}
		}
		full := l.workers * 8
		return &waves{cur: full, max: full, speculate: true}
	}
	return &waves{cur: seqChunk, max: seqChunk}
}

// nextSize returns the next wave's candidate budget, ramping toward max.
func (w *waves) nextSize() int {
	s := w.cur
	w.cur = min(w.cur*2, w.max)
	return s
}

// logStep emits one trace line when the caller installed Options.Logf.
func (l *learner) logStep(kind string, h *node) {
	if l.opts.Logf == nil {
		return
	}
	l.step++
	l.opts.Logf("step %d (%s): %s", l.step, kind, render(l.roots[len(l.roots)-1]))
	_ = h
}

// phase1 generalizes one seed input into an annotated regular-expression
// tree (§4), returning its root. Holes are processed LIFO, which reproduces
// the step order of Figure 2.
func (l *learner) phase1(seed string) *node {
	root := &node{kind: nHole, hole: hRep, str: seed}
	l.roots = append(l.roots, root)
	l.matcherDirty = true
	stack := []*node{root}
	for len(stack) > 0 {
		h := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var fresh []*node
		if h.hole == hRep {
			fresh = l.generalizeRep(h)
		} else {
			fresh = l.generalizeAlt(h)
		}
		stack = append(stack, fresh...)
	}
	return root
}

// repCand is one decomposition α = α1·α2·α3 of a repetition candidate.
type repCand struct {
	α1, α2, α3 string
}

// repIter lazily enumerates the decompositions α = α1·α2·α3 with α2 ≠ ε in
// the §4.2 candidate order: shorter α1 first, then longer α2 first
// (inverted by the ReverseOrdering ablation), skipping the full-span star
// when the hole forbids it. There are O(|α|²) decompositions, so they are
// produced on demand — the scan usually accepts an early candidate and a
// long seed must not materialize the full list.
type repIter struct {
	α          string
	noFullStar bool
	reverse    bool
	ii, jj     int
}

func newRepIter(α string, noFullStar, reverse bool) *repIter {
	return &repIter{α: α, noFullStar: noFullStar, reverse: reverse, jj: len(α)}
}

func (it *repIter) next() (repCand, bool) {
	n := len(it.α)
	for it.ii < n {
		i := it.ii // α1 = α[:i], shorter first (§4.2)
		if it.reverse {
			i = n - 1 - it.ii
		}
		for it.jj > i {
			j := it.jj // α2 = α[i:j], longer first (§4.2)
			if it.reverse {
				j = n + i + 1 - it.jj
			}
			it.jj--
			if it.noFullStar && i == 0 && j == n {
				continue
			}
			return repCand{it.α[:i], it.α[i:j], it.α[j:]}, true
		}
		it.ii++
		it.jj = n
	}
	return repCand{}, false
}

// generalizeRep performs one repetition generalization step on hole
// h = [α]rep (§4.1): candidates α1([α2]alt)*[α3]rep for every decomposition
// α = α1·α2·α3 with α2 ≠ ε, ordered per §4.2, with the plain literal α
// ranked last. Residuals are α1α3 and α1α2α2α3 (§4.3). Candidates are
// scanned strictly in order — the wave machinery only prefetches the
// upcoming residual checks through the batched oracle — so the chosen
// structure is independent of Workers. It mutates h into the chosen
// structure and returns fresh holes.
func (l *learner) generalizeRep(h *node) []*node {
	α := h.str
	γ, δ := h.ctx.Left, h.ctx.Right
	if !l.stopped() {
		it := newRepIter(α, h.noFullStar, l.opts.ReverseOrdering)
		w := l.newWaves(true)
		var buf []repCand // reused wave buffer; memory stays O(wave), not O(|α|²)
		for {
			buf = buf[:0]
			for size := w.nextSize(); len(buf) < size; {
				c, ok := it.next()
				if !ok {
					break
				}
				buf = append(buf, c)
			}
			if len(buf) == 0 {
				break
			}
			if w.speculate {
				checks := make([]string, 0, 2*len(buf))
				for _, c := range buf {
					checks = append(checks, γ+c.α1+c.α3+δ, γ+c.α1+c.α2+c.α2+c.α3+δ)
				}
				l.prefetch(l.screen(checks))
			}
			for _, c := range buf {
				l.stats.Candidates++
				if !l.passes(γ+c.α1+c.α3+δ) || !l.passes(γ+c.α1+c.α2+c.α2+c.α3+δ) {
					continue
				}
				return l.acceptRep(h, c.α1, c.α2, c.α3)
			}
			if l.stopped() {
				break
			}
		}
	}
	// Final candidate: the constant α (Trep ::= β). No checks needed.
	h.kind = nLit
	l.logStep("rep→const", h)
	return nil
}

// acceptRep rewrites hole h (context (γ,δ)) into α1 ([α2]alt)* [α3]rep,
// assigning the contexts of §4.3:
//
//	[α2]alt ↦ (γα1, α3δ)    [α3]rep ↦ (γα1α2, δ)    literal α1 ↦ (γ, α3δ)
func (l *learner) acceptRep(h *node, α1, α2, α3 string) []*node {
	γ, δ := h.ctx.Left, h.ctx.Right
	starCtx := Context{γ + α1, α3 + δ}
	body := &node{kind: nHole, hole: hAlt, str: α2, ctx: starCtx}
	star := &node{kind: nStar, kids: []*node{body}, ctx: starCtx, bodySeed: α2}

	var kids []*node
	if α1 != "" {
		kids = append(kids, lit(α1, Context{γ, α3 + δ}))
	}
	kids = append(kids, star)
	var fresh []*node
	fresh = append(fresh, body)
	if α3 != "" {
		rest := &node{kind: nHole, hole: hRep, str: α3, ctx: Context{γ + α1 + α2, δ}}
		kids = append(kids, rest)
		fresh = append(fresh, rest)
	}
	if len(kids) == 1 {
		*h = *star
		// The body hole's parent is now h itself; re-point the star child.
		h.kids = []*node{body}
	} else {
		h.kind = nSeq
		h.str = ""
		h.kids = kids
	}
	l.matcherDirty = true
	l.logStep("rep", h)
	// Return in creation order; the caller's LIFO stack then processes
	// [α3]rep before [α2]alt, matching Figure 2.
	return fresh
}

// generalizeAlt performs one alternation generalization step on hole
// h = [α]alt (§4.1): candidates ([α1]rep + [α2]alt) for every decomposition
// α = α1·α2 with both parts nonempty, ordered by shorter α1 (§4.2).
// Residuals are α1 and α2; as in generalizeRep, waves prefetch upcoming
// checks without reordering the scan. The final candidate demotes the hole
// to [α]rep (the production Talt ::= Trep of the meta-grammar).
func (l *learner) generalizeAlt(h *node) []*node {
	α := h.str
	γ, δ := h.ctx.Left, h.ctx.Right
	if !l.stopped() && len(α) > 1 {
		w := l.newWaves(true)
		for lo, n := 0, len(α)-1; lo < n; {
			hi := min(lo+w.nextSize(), n)
			if w.speculate {
				checks := make([]string, 0, 2*(hi-lo))
				for k := lo; k < hi; k++ {
					i := k + 1 // α1 = α[:i], shorter first (§4.2)
					checks = append(checks, γ+α[:i]+δ, γ+α[i:]+δ)
				}
				l.prefetch(l.screen(checks))
			}
			for k := lo; k < hi; k++ {
				i := k + 1
				α1, α2 := α[:i], α[i:]
				l.stats.Candidates++
				if !l.passes(γ+α1+δ) || !l.passes(γ+α2+δ) {
					continue
				}
				left := &node{kind: nHole, hole: hRep, str: α1, ctx: Context{γ, α2 + δ}, noFullStar: true}
				right := &node{kind: nHole, hole: hAlt, str: α2, ctx: Context{γ + α1, δ}}
				h.kind = nAlt
				h.str = ""
				h.kids = []*node{left, right}
				l.matcherDirty = true
				l.logStep("alt", h)
				return []*node{left, right}
			}
			lo = hi
			if l.stopped() {
				break
			}
		}
	}
	// Final candidate: [α]alt becomes [α]rep and is reprocessed.
	h.hole = hRep
	h.noFullStar = true
	l.logStep("alt→rep", h)
	return []*node{h}
}
