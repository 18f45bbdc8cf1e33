package core

import "glade/internal/bytesets"

// charGen is the character-generalization phase of §6.2: for each terminal
// position σi of each literal in the synthesized regular expression, and
// each other byte σ of the generalization alphabet, it proposes replacing
// σi by (σi + σ), validated by the single check γ·σ1…σi−1·σ·σi+1…σk·δ.
// Each (position, byte) pair is considered exactly once.
//
// Membership of every such check in L̂i comes from one substitution table
// per literal (rex.Matcher.Substitutions). The table stays exact for the
// whole scan, because the matcher changes only in rewriteLit, after it.
// Members are discarded without a query (§4.3), so only the rest reach the
// oracle.
//
// Every (position, byte) check result is consumed — there is no accept
// point that cuts the scan short — so this phase parallelizes perfectly:
// with Workers > 1, checks are prefetched in full-width waves through the
// batched oracle with zero wasted speculation.
//
// Literals whose context was recorded during phase one are rewritten in
// place: positions that generalized to more than one byte become character
// classes.
func (l *learner) charGen(root *node) {
	if l.opts.GenAlphabet.IsEmpty() {
		return
	}
	var lits []*node
	walk(root, func(n *node) {
		if n.kind == nLit && n.str != "" {
			lits = append(lits, n)
		}
	})
	alphabet := l.opts.GenAlphabet.Bytes()
	for li, n := range lits {
		if l.stopped() {
			return
		}
		l.emit(Progress{Phase: "chargen", Lit: li + 1, Lits: len(lits)})
		s := n.str
		γ, δ := n.ctx.Left, n.ctx.Right
		var members []bytesets.Set // row i: the bytes σ whose check at i is in L̂i
		if l.opts.DiscardMemberChecks {
			members = l.currentMatcher().Substitutions(γ, s, δ)
		}

		// Flatten the (position, byte) candidates of this literal; the scan
		// visits them in the seed's order (positions left to right, alphabet
		// order within a position).
		type cgCand struct {
			pos    int
			σ      byte
			member bool
		}
		cands := make([]cgCand, 0, len(s)*len(alphabet))
		for i := 0; i < len(s); i++ {
			for _, σ := range alphabet {
				if σ == s[i] {
					continue
				}
				cands = append(cands, cgCand{i, σ, members != nil && members[i].Has(σ)})
			}
		}

		sets := make([][]byte, len(s))
		for i := range sets {
			sets[i] = []byte{s[i]}
		}
		anyWidened := false
		w := l.newWaves(false)
		var checks, ask []string // per-wave buffers; a member's check stays ""
	scan:
		for lo := 0; lo < len(cands); {
			hi := min(lo+w.nextSize(), len(cands))
			checks, ask = checks[:0], ask[:0]
			for _, c := range cands[lo:hi] {
				check := ""
				if !c.member {
					check = γ + s[:c.pos] + string(c.σ) + s[c.pos+1:] + δ
					ask = append(ask, check)
				}
				checks = append(checks, check)
			}
			if w.speculate {
				l.prefetch(ask)
			}
			for k, c := range cands[lo:hi] {
				l.stats.CharGenChecks++
				if l.decide(checks[k], c.member) {
					sets[c.pos] = append(sets[c.pos], c.σ)
					anyWidened = true
				}
			}
			lo = hi
			if l.stopped() {
				break scan
			}
		}
		if !anyWidened {
			continue
		}
		l.rewriteLit(n, sets)
		l.matcherDirty = true
	}
}

// rewriteLit replaces literal node n with a sequence mixing literal runs
// (positions that stayed singletons) and character classes (positions that
// widened). A literal that widened at every position with the same set
// still becomes per-position classes; runs of singletons re-merge into
// literal nodes to keep the tree small.
func (l *learner) rewriteLit(n *node, sets [][]byte) {
	s := n.str
	var kids []*node
	i := 0
	for i < len(s) {
		if len(sets[i]) == 1 {
			j := i
			for j < len(s) && len(sets[j]) == 1 {
				j++
			}
			kids = append(kids, lit(s[i:j], Context{}))
			i = j
			continue
		}
		cls := &node{kind: nClass}
		for _, b := range sets[i] {
			cls.set.Add(b)
		}
		kids = append(kids, cls)
		i++
	}
	if len(kids) == 1 {
		*n = *kids[0]
		return
	}
	n.kind = nSeq
	n.str = ""
	n.kids = kids
}
