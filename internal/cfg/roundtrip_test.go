package cfg_test

// Property-style guard for the grammar store's on-disk format: Marshal →
// Unmarshal → Marshal must round-trip byte-identically on every grammar
// the learner actually produces. The service persists grammars as Marshal
// text and re-serves those bytes verbatim after a restart, so any
// asymmetry between the two directions would silently corrupt the store.
//
// This lives in an external test package so it can run the real learner
// (core imports cfg; cfg_test may import core without a cycle).

import (
	"context"
	"testing"
	"time"

	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/oracle"
	"glade/internal/programs"
	"glade/internal/targets"
)

// assertRoundTrip checks the double round-trip: the second Marshal must
// reproduce the first byte for byte, and a third pass (re-parsing the
// reproduced text) must be stable too.
func assertRoundTrip(t *testing.T, name string, g *cfg.Grammar) {
	t.Helper()
	first := cfg.Marshal(g)
	parsed, err := cfg.Unmarshal(first)
	if err != nil {
		t.Fatalf("%s: Unmarshal of Marshal output failed: %v\n%s", name, err, first)
	}
	second := cfg.Marshal(parsed)
	if second != first {
		t.Fatalf("%s: Marshal→Unmarshal→Marshal not byte-identical:\n-- first --\n%s\n-- second --\n%s", name, first, second)
	}
	if !cfg.Equal(g, parsed) {
		t.Fatalf("%s: round-tripped grammar not Equal to the original", name)
	}
}

// TestMarshalRoundTripLearnedTargets covers every grammar learned from the
// §8.2 target languages' documentation seeds — the corpus the core tests
// and the service's builtin target jobs produce.
func TestMarshalRoundTripLearnedTargets(t *testing.T) {
	for _, tgt := range targets.All() {
		opts := core.DefaultOptions()
		opts.Timeout = 30 * time.Second
		res, err := core.Learn(context.Background(), tgt.DocSeeds, tgt.Oracle, opts)
		if err != nil {
			t.Fatalf("%s: %v", tgt.Name, err)
		}
		assertRoundTrip(t, "target "+tgt.Name, res.Grammar)
		// The store serves trimmed grammars too (cmd/glade prints them);
		// the format must hold on both.
		assertRoundTrip(t, "target "+tgt.Name+" (trimmed)", res.Grammar.Trim())
	}
}

// TestMarshalRoundTripLearnedPrograms covers grammars learned from the
// §8.3 simulated programs' bundled seeds — the service's builtin program
// jobs.
func TestMarshalRoundTripLearnedPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("learns several programs")
	}
	for _, p := range programs.All() {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			opts := core.DefaultOptions()
			opts.Timeout = 60 * time.Second
			opts.Workers = 4
			res, err := core.Learn(context.Background(), p.Seeds(), oracle.Func(func(s string) bool { return p.Run(s).OK }), opts)
			if err != nil {
				t.Fatal(err)
			}
			assertRoundTrip(t, "program "+p.Name(), res.Grammar)
		})
	}
}

// TestMarshalRoundTripEdgeCases covers constructs the learner emits rarely
// but the format must still carry: epsilon productions, class
// metacharacter escapes, non-printable bytes, and literal quoting.
func TestMarshalRoundTripEdgeCases(t *testing.T) {
	texts := []string{
		"start A\nA ->\n",
		"start A\nA -> \"a\\\"b\\\\c\"\n",
		"start A\nA -> {\\-\\{\\}\\\\} A\nA ->\n",
		"start A\nA -> {\\x00\\x7f\\n\\t\\r}\n",
		"start A\nA -> {a-z0-9} B\nB -> \"<>\" B\nB ->\n",
	}
	for _, text := range texts {
		g, err := cfg.Unmarshal(text)
		if err != nil {
			t.Fatalf("edge-case source did not parse: %v\n%s", err, text)
		}
		assertRoundTrip(t, "edge case", g)
	}
}
