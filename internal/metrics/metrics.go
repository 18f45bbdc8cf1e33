// Package metrics implements the evaluation measures of §2 and §8.2:
// precision and recall of a learned language against a target language,
// estimated by sampling (Definition 2.1), and the F1 score combining them.
package metrics

import (
	"math/rand"

	"glade/internal/automata"
	"glade/internal/cfg"
)

// Language is the minimal view the evaluator needs of a language: a
// membership test and a sampler. Sample returns false when the language is
// empty (or no sample could be produced).
type Language interface {
	Accepts(input string) bool
	Sample(rng *rand.Rand) (string, bool)
}

// Eval holds a precision/recall measurement.
type Eval struct {
	Precision float64
	Recall    float64
	// PrecisionN and RecallN are the sample counts actually used.
	PrecisionN int
	RecallN    int
}

// F1 returns the harmonic mean of precision and recall (0 when both are 0).
func (e Eval) F1() float64 {
	if e.Precision+e.Recall == 0 {
		return 0
	}
	return 2 * e.Precision * e.Recall / (e.Precision + e.Recall)
}

// Evaluate estimates precision (samples of learned ∈ target) and recall
// (samples of target ∈ learned) with n samples per side, following §8.2
// (which uses n = 1000).
func Evaluate(learned, target Language, n int, rng *rand.Rand) Eval {
	var e Eval
	ok := 0
	for i := 0; i < n; i++ {
		s, drawn := learned.Sample(rng)
		if !drawn {
			break
		}
		e.PrecisionN++
		if target.Accepts(s) {
			ok++
		}
	}
	if e.PrecisionN > 0 {
		e.Precision = float64(ok) / float64(e.PrecisionN)
	}
	ok = 0
	for i := 0; i < n; i++ {
		s, drawn := target.Sample(rng)
		if !drawn {
			break
		}
		e.RecallN++
		if learned.Accepts(s) {
			ok++
		}
	}
	if e.RecallN > 0 {
		e.Recall = float64(ok) / float64(e.RecallN)
	}
	return e
}

// GrammarLang wraps a context-free grammar as a Language: the compiled
// recognition ladder answers membership and the compiled §8.1 sampler
// draws samples.
type GrammarLang struct {
	c     *cfg.Compiled
	empty bool
}

// NewGrammarLang builds a GrammarLang with the given sampler depth budget.
func NewGrammarLang(g *cfg.Grammar, depth int) *GrammarLang {
	c := cfg.Compile(g)
	c.MaxDepth = depth
	return &GrammarLang{c: c, empty: !g.Productive()[g.Start]}
}

// Accepts implements Language.
func (l *GrammarLang) Accepts(s string) bool { return l.c.Accepts(s) }

// Sample implements Language.
func (l *GrammarLang) Sample(rng *rand.Rand) (string, bool) {
	if l.empty {
		return "", false
	}
	return l.c.Sample(rng), true
}

// DFALang wraps a DFA as a Language with bounded-length sampling.
type DFALang struct {
	D      *automata.DFA
	MaxLen int
}

// Accepts implements Language.
func (l *DFALang) Accepts(s string) bool { return l.D.Accepts(s) }

// Sample implements Language.
func (l *DFALang) Sample(rng *rand.Rand) (string, bool) {
	return automata.Sample(l.D, rng, l.MaxLen, 0.25)
}

// OracleLang pairs a membership predicate with an external sampler; it is
// how a target (hand parser + ground-truth grammar) enters Evaluate.
type OracleLang struct {
	O func(string) bool
	S func(rng *rand.Rand) (string, bool)
}

// Accepts implements Language.
func (l *OracleLang) Accepts(s string) bool { return l.O(s) }

// Sample implements Language.
func (l *OracleLang) Sample(rng *rand.Rand) (string, bool) { return l.S(rng) }
