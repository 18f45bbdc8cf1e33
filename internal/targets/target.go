// Package targets defines the four hand-written evaluation languages of
// §8.2 — URL, Grep regular expressions, Lisp, and XML — each as a pair of
// (a) a context-free grammar, sampled to measure recall, and (b) a fast
// hand-written parser used as the membership oracle, playing the role of
// the program under learning. Seed inputs come from a third, realistic
// generator (SeedGen).
//
// The two representations are kept in exact agreement; the package tests
// cross-check them on sampled members and on mutated near-misses.
package targets

import (
	"math/rand"

	"glade/internal/cfg"
	"glade/internal/oracle"
)

// Target is one evaluation language.
type Target struct {
	// Name identifies the target in tables ("url", "grep", "lisp", "xml").
	Name string
	// Grammar is the ground-truth context-free grammar defining L*.
	Grammar *cfg.Grammar
	// Oracle answers membership in L* (a hand-written parser; the "program").
	Oracle oracle.Func
	// DocSeeds are a few representative hand-picked seed inputs, standing in
	// for the paper's "examples from documentation".
	DocSeeds []string
	// SeedGen generates random *realistic* valid inputs — the distribution
	// seed inputs actually come from (documentation examples, test suites);
	// SampleSeeds draws from it, so every target sets it.
	// The uniform PCFG sampler over Grammar produces adversarially
	// unstructured strings no human test suite contains; learning from
	// those is a different (harder) problem than the paper's.
	SeedGen func(rng *rand.Rand) string
}

// All returns the four evaluation targets in the paper's order.
func All() []*Target {
	return []*Target{URL(), Grep(), Lisp(), XML()}
}

// ByName returns the named target, or nil.
func ByName(name string) *Target {
	for _, t := range All() {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// SampleSeeds draws n distinct seed inputs from SeedGen. Seeds play the
// role of the paper's "small test suites or examples from documentation".
// Duplicates are re-drawn (bounded), so the result may be shorter than n
// for very small languages.
func (t *Target) SampleSeeds(rng *rand.Rand, n int) []string {
	seen := map[string]bool{}
	var out []string
	for attempts := 0; len(out) < n && attempts < 200*n; attempts++ {
		s := t.SeedGen(rng)
		if seen[s] || len(s) > 60 {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}
