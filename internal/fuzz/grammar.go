package fuzz

import (
	"math/rand"
	"sync"

	"glade/internal/cfg"
	"glade/internal/programs"
)

// Grammar is the grammar-based fuzzer of §8.3: given the synthesized
// grammar Ĉ and the seed inputs, each generated input starts from the parse
// tree of a random seed and undergoes n ∈ [0,50] subtree resamplings —
// choose a random tree node labeled A and replace it with a fresh sample
// from PL(Ĉ,A).
//
// Seed trees are flattened once into cfg.Derivations, which Next copies
// into pooled scratch before mutating, so concurrent Next calls with
// distinct rngs are safe.
type Grammar struct {
	compiled *cfg.Compiled
	trees    []*cfg.Derivation
	// fallback seeds that did not parse under the grammar (possible when
	// learning timed out); they are emitted unmodified occasionally.
	unparsed []string
	scratch  sync.Pool // *nextScratch
}

// nextScratch is one Next call's working space: the input being mutated
// and the fresh subtree sampled for the next splice.
type nextScratch struct{ d, fresh cfg.Derivation }

// NewGrammar builds the fuzzer over cfg.Compile(g); see NewGrammarFrom.
func NewGrammar(g *cfg.Grammar, seeds []string) *Grammar {
	return NewGrammarFrom(cfg.Compile(g), seeds)
}

// NewGrammarFrom builds the fuzzer over an already compiled grammar, which
// parses the seeds and runs every subtree resample. Seeds that fail to
// parse are kept as unmutatable fallbacks; at least one seed must parse or
// be present. Callers that need membership checks against the same
// grammar can reuse c (see Compiled) instead of building another.
func NewGrammarFrom(c *cfg.Compiled, seeds []string) *Grammar {
	f := &Grammar{compiled: c}
	f.scratch.New = func() any { return new(nextScratch) }
	for _, s := range seeds {
		if t, err := c.Parse(s); err == nil {
			f.trees = append(f.trees, t.Flatten(s))
		} else {
			f.unparsed = append(f.unparsed, s)
		}
	}
	return f
}

// Name implements Fuzzer.
func (f *Grammar) Name() string { return "glade" }

// Compiled returns the fuzzer's compiled grammar engine, for callers that
// need membership checks against the same grammar (campaign triage batches
// through its AcceptsAll).
func (f *Grammar) Compiled() *cfg.Compiled { return f.compiled }

// Observe implements Fuzzer (the grammar fuzzer ignores feedback).
func (f *Grammar) Observe(string, programs.Result) {}

// Next implements Fuzzer. Each §8.3 modification replaces a uniformly
// random node with a fresh sample from its nonterminal.
func (f *Grammar) Next(rng *rand.Rand) string {
	if len(f.trees) == 0 {
		if len(f.unparsed) == 0 {
			return ""
		}
		return f.unparsed[rng.Intn(len(f.unparsed))]
	}
	s := f.scratch.Get().(*nextScratch)
	s.d.CopyFrom(f.trees[rng.Intn(len(f.trees))])
	n := rng.Intn(MaxMutations + 1)
	for k := 0; k < n; k++ {
		at := rng.Intn(s.d.Len())
		f.compiled.SampleInto(&s.fresh, rng, s.d.NT(at))
		s.d.Splice(at, &s.fresh)
	}
	out := string(s.d.Text())
	f.scratch.Put(s)
	return out
}
