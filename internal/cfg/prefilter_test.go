package cfg_test

// Soundness and routing tests for the DFA prefilter rung, including the
// pinned golden grammars the learner actually produces: the prefilter may
// only ever reject strings outside the language, it must reject a useful
// share of near-miss corpora (a 0% reject rate means the rung is dead
// weight), and the learned sed/xml grammars must keep their intended
// ladder shapes — xml lowers to the VM, sed's hidden left recursion
// (A1 ⇒ A1b A1 with A1b ⇒* A1 A1) correctly refuses the VM and runs
// DFA → Earley. TestPrefilterTables pins the DFA itself, table for table.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/programs"
)

var updatePrefilter = flag.Bool("update-prefilter", false, "rewrite testdata/prefilter.txt from the current prefilter builder")

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
// engine accepts — and that it does reject something. The same corpus
// runs through the whole engine agreement check, parse trees included.
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
		corpus := corpusFor(g, p.Seeds())
		assertEngineAgreement(t, tc.golden, g, corpus)
		rejected := 0
		for _, in := range corpus {
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

// chainGrammar returns S → L a Rn, L → [ab] L | ε, Rk → [ab] Rk-1, R0 → ε:
// the regular language (a|b)*a(a|b)^n, whose subset construction needs a
// state for every set of the last n+1 positions that held an a.
func chainGrammar(n int) *cfg.Grammar {
	g := cfg.New()
	s, l := g.AddNT("S"), g.AddNT("L")
	ab := cfg.T(bytesets.Of('a', 'b'))
	g.Add(l, ab, cfg.N(l))
	g.Add(l)
	r := g.AddNT("R0")
	g.Add(r)
	for k := 1; k <= n; k++ {
		next := g.AddNT(fmt.Sprintf("R%d", k))
		g.Add(next, ab, cfg.N(r))
		r = next
	}
	g.Add(s, cfg.N(l), cfg.TByte('a'), cfg.N(r))
	return g
}

// TestPrefilterTables pins the DFA Compile builds — state numbering,
// transition table, accept bits, and whether there is one at all — on the
// four golden grammars, the pathological set, the (a|b)*a(a|b)^n chain at
// n = 8 and at n = 10 (past the state cap), and 2,000 random grammars (one
// digest per block of 100), against testdata/prefilter.txt.
//
// The file was produced at the commit before the builder composed its
// ε-closures from per-nonterminal tables, by running
//
//	go test ./internal/cfg -run TestPrefilterTables -update-prefilter
//
// there. A change that only makes the builder faster must leave it
// untouched.
func TestPrefilterTables(t *testing.T) {
	var got []string
	pin := func(name string, g *cfg.Grammar) {
		got = append(got, name+" "+cfg.PrefilterDigest(cfg.Compile(g)))
	}
	for _, name := range []string{"golden_sed_w1", "golden_sed_w8", "golden_xml_w1", "golden_xml_w8"} {
		pin(name, loadGolden(t, name+".grammar"))
	}
	paths := pathologicalGrammars()
	for _, name := range slices.Sorted(maps.Keys(paths)) {
		pin(name, paths[name])
	}
	pin("chain-8", chainGrammar(8))
	pin("chain-10", chainGrammar(10))
	rng := rand.New(rand.NewSource(1))
	for lo := 0; lo < 2000; lo += 100 {
		h := sha256.New()
		for i := 0; i < 100; i++ {
			fmt.Fprintln(h, cfg.PrefilterDigest(cfg.Compile(randomGrammar(rng))))
		}
		got = append(got, fmt.Sprintf("random-%d-%d %x", lo, lo+99, h.Sum(nil)))
	}

	path := filepath.Join("testdata", "prefilter.txt")
	if *updatePrefilter {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("prefilter.txt has %d lines, the test pins %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("prefilter.txt drift:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
