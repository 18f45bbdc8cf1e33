package core

import "glade/internal/rex"

// phase2 learns recursive structure (§5): every unordered pair of
// repetition subexpressions (star nodes) is a merge candidate, validated by
// substituting the doubled body seed of each star into the context of the
// other (§5.3). Accepted merges are recorded in a union-find over star
// nodes; the CFG translation then maps each merge class to one nonterminal,
// which is exactly the paper's "equate A'i and A'j" construction.
//
// The doubled-seed residuals of upcoming pairs are deterministic, so with
// Workers > 1 they are prefetched in waves through the batched oracle. The
// RandSeed-driven sampled residuals (MergeSampleChecks) are issued strictly
// sequentially from the scan, because each draw's very occurrence depends
// on the preceding checks — prefetching them would desynchronize the rng
// stream and break grammar determinism.
func (l *learner) phase2(allStars []*node) *unionFind {
	uf := newUnionFind(len(allStars))
	type starPair struct{ i, j int }
	pairs := make([]starPair, 0, len(allStars)*(len(allStars)-1)/2)
	for i := 0; i < len(allStars); i++ {
		for j := i + 1; j < len(allStars); j++ {
			pairs = append(pairs, starPair{i, j})
		}
	}
	w := l.newWaves(false)
	for lo := 0; lo < len(pairs); {
		l.emit(Progress{Phase: "phase2", Pairs: lo, TotalPairs: len(pairs)})
		hi := min(lo+w.nextSize(), len(pairs))
		if w.speculate {
			checks := make([]string, 0, 2*(hi-lo))
			for _, p := range pairs[lo:hi] {
				if uf.find(p.i) == uf.find(p.j) {
					// Already equated when the wave was formed; the scan will
					// almost surely skip it (merges accepted mid-wave may
					// still equate more — prefetching those few is harmless).
					continue
				}
				a, b := allStars[p.i], allStars[p.j]
				checks = append(checks,
					a.ctx.Left+b.bodySeed+b.bodySeed+a.ctx.Right,
					b.ctx.Left+a.bodySeed+a.bodySeed+b.ctx.Right)
			}
			l.prefetch(l.screen(checks))
		}
		for _, p := range pairs[lo:hi] {
			if l.stopped() {
				return uf
			}
			l.stats.MergePairs++
			if uf.find(p.i) == uf.find(p.j) {
				// Already equated transitively; the merge candidate equals
				// the current language, so it is trivially selected.
				continue
			}
			a, b := allStars[p.i], allStars[p.j]
			l.stats.Candidates++
			// Check L(P R' Q) ⊆ L*: residuals of R' in the context of a,
			// and symmetrically. The paper's residual is the doubled body
			// seed (§5.3); MergeSampleChecks adds residuals sampled from
			// the generalized body, which also exercise character classes.
			if l.mergeChecksPass(a, b) && l.mergeChecksPass(b, a) {
				uf.union(p.i, p.j)
				l.stats.Merged++
			}
		}
		lo = hi
	}
	return uf
}

// mergeChecksPass validates substituting star b's repetition language into
// star a's context: the doubled seed residual of §5.3, plus sampled
// residuals from b's generalized body when MergeSampleChecks > 0.
func (l *learner) mergeChecksPass(a, b *node) bool {
	if !l.passes(a.ctx.Left + b.bodySeed + b.bodySeed + a.ctx.Right) {
		return false
	}
	if l.opts.MergeSampleChecks > 0 {
		body := toRex(b.kids[0])
		if !rex.Empty(body) {
			for k := 0; k < l.opts.MergeSampleChecks; k++ {
				ρ := rex.Sample(body, l.rng, 0.4)
				// One and two iterations of the substituted body, both in
				// L(P R' Q).
				if !l.passes(a.ctx.Left + ρ + a.ctx.Right) {
					return false
				}
				if !l.passes(a.ctx.Left + ρ + ρ + a.ctx.Right) {
					return false
				}
			}
		}
	}
	return true
}

// unionFind is a standard disjoint-set forest with path compression and
// union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(x, y int) {
	rx, ry := uf.find(x), uf.find(y)
	if rx == ry {
		return
	}
	if uf.size[rx] < uf.size[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = rx
	uf.size[rx] += uf.size[ry]
}
