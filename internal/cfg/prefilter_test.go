package cfg_test

// Soundness and routing tests for the DFA prefilter rung, including the
// pinned golden grammars the learner actually produces: the prefilter may
// only ever reject strings outside the language, it must reject a useful
// share of near-miss corpora (a 0% reject rate means the rung is dead
// weight), and the learned sed/xml grammars must keep their intended
// ladder shapes — xml lowers to the VM, sed's hidden left recursion
// (A1 ⇒ A1b A1 with A1b ⇒* A1 A1) correctly refuses the VM and runs
// DFA → Earley.

import (
	"os"
	"path/filepath"
	"testing"

	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/programs"
)

// loadGolden parses one pinned learned grammar from the core package's
// golden testdata.
func loadGolden(t testing.TB, name string) *cfg.Grammar {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "core", "testdata", name))
	if err != nil {
		t.Fatalf("golden grammar: %v", err)
	}
	g, err := cfg.Unmarshal(string(text))
	if err != nil {
		t.Fatalf("golden grammar %s: %v", name, err)
	}
	return g
}

// TestPrefilterSoundnessGolden checks, over the differential suite's
// corpus, that the prefilter never rejects an input the reference Earley
// engine accepts — and that it does reject something.
func TestPrefilterSoundnessGolden(t *testing.T) {
	for _, tc := range []struct {
		golden, program string
	}{
		{"golden_sed_w1.grammar", "sed"},
		{"golden_xml_w1.grammar", "xml"},
	} {
		g := loadGolden(t, tc.golden)
		c := cfg.Compile(g)
		if !c.HasPrefilter() {
			t.Fatalf("%s: learned grammar should build a prefilter", tc.program)
		}
		p := programs.ByName(tc.program)
		if p == nil {
			t.Fatalf("unknown program %s", tc.program)
		}
		rejected := 0
		for _, in := range corpusFor(g, p.Seeds()) {
			if !c.PrefilterRejects(in) {
				continue
			}
			rejected++
			if c.AcceptsEarley(in) {
				t.Fatalf("%s: prefilter rejects %q, which Earley accepts", tc.program, in)
			}
		}
		if rejected == 0 {
			t.Fatalf("%s: prefilter rejected nothing on the corpus", tc.program)
		}
	}
}

// TestLadderShapeGolden pins which rungs the pinned learned grammars get:
// losing xml's VM (or sed's prefilter) would silently degrade the ladder
// while every verdict stayed correct.
func TestLadderShapeGolden(t *testing.T) {
	xml := cfg.Compile(loadGolden(t, "golden_xml_w1.grammar"))
	if !xml.HasPrefilter() || !xml.HasVM() {
		t.Fatalf("xml: HasPrefilter=%v HasVM=%v, want full ladder", xml.HasPrefilter(), xml.HasVM())
	}
	// sed's learned grammar is genuinely left-recursive after unit closure,
	// so the VM must refuse it and accepts must take the Earley rung.
	sed := cfg.Compile(loadGolden(t, "golden_sed_w1.grammar"))
	if !sed.HasPrefilter() {
		t.Fatal("sed: learned grammar should build a prefilter")
	}
	if sed.HasVM() {
		t.Fatal("sed: left-recursive learned grammar must not lower to the VM")
	}
	if got, rung := sed.AcceptsRung("s/a/b/"); !got || rung != cfg.RungEarley {
		t.Fatalf("sed: AcceptsRung(s/a/b/) = (%v, %s), want (true, earley)", got, rung)
	}
}

// TestPrefilterExactOnRegularGrammar: for a regular grammar the collapsed
// approximation is the language itself, so the prefilter alone decides
// every reject.
func TestPrefilterExactOnRegularGrammar(t *testing.T) {
	g := cfg.New() // S -> [a-c] S | [xy]
	s := g.AddNT("S")
	g.Add(s, cfg.T(bytesets.Range('a', 'c')), cfg.N(s))
	g.Add(s, cfg.T(bytesets.Of('x', 'y')))
	c := cfg.Compile(g)
	parser := cfg.NewParser(g)
	for _, in := range []string{"", "x", "abcx", "abc", "xy", "aay", "zax", "aaz"} {
		want := parser.Accepts(in)
		got, rung := c.AcceptsRung(in)
		if got != want {
			t.Fatalf("AcceptsRung(%q) = %v, want %v", in, got, want)
		}
		if !want && rung != cfg.RungDFA {
			t.Fatalf("reject of %q took the %s rung, want dfa (approximation is exact)", in, rung)
		}
	}
}
