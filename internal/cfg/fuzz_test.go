package cfg_test

// Native fuzz targets locking down the recognition ladder and the grammar
// wire format:
//
//   - FuzzAcceptsDifferential feeds arbitrary inputs to every engine — the
//     map-based Earley Parser (the reference), the full compiled ladder,
//     the Earley rung alone, the DFA prefilter in its sound direction,
//     and compiled tree extraction — over the pinned learned sed/xml
//     grammars plus the handcrafted pathological set, and fails on any
//     disagreement.
//   - FuzzCompileRoundTrip drives Unmarshal → Marshal → Unmarshal →
//     Compile on arbitrary grammar text: parsing must never panic, the
//     marshaled form must be a fixed point, and the two compiled ladders
//     must agree with the reference parser on a deterministic probe set.
//   - FuzzDerivSplice drives the flat derivation's sample-and-splice
//     operations the way the grammar fuzzer does, recomputing every node's
//     subtree size and span from scratch after each splice.
//
// The seed corpora live under testdata/fuzz/ and run as ordinary tests in
// every `go test` invocation; `make fuzz` (and the CI fuzz-smoke job) run
// the randomized exploration.

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"glade/internal/cfg"
	"glade/internal/fuzz"
	"glade/internal/programs"
)

// Input caps per grammar family: the map-based reference parser is
// O(n²)-ish on ambiguous grammars, so the large learned goldens get a
// tighter cap than the small handcrafted shapes — longer suffixes add
// fuzz wall-clock, not ladder coverage.
const (
	maxFuzzInputGolden = 96
	maxFuzzInputSmall  = 256
)

// fuzzEngine is one pre-built grammar with all engines constructed once
// per process (fuzz workers re-execute the test binary, not the target).
type fuzzEngine struct {
	name   string
	cap    int
	parser *cfg.Parser
	comp   *cfg.Compiled
}

// goldenNames are the pinned learned grammars under internal/core/testdata.
var goldenNames = []string{"golden_sed_w1.grammar", "golden_xml_w1.grammar"}

func buildFuzzEngines(tb testing.TB) []*fuzzEngine {
	var out []*fuzzEngine
	add := func(name string, g *cfg.Grammar, cap int) {
		out = append(out, &fuzzEngine{name: name, cap: cap, parser: cfg.NewParser(g), comp: cfg.Compile(g)})
	}
	for _, golden := range goldenNames {
		add(golden, loadGolden(tb, golden), maxFuzzInputGolden)
	}
	paths := pathologicalGrammars()
	for _, name := range slices.Sorted(maps.Keys(paths)) {
		add(name, paths[name], maxFuzzInputSmall)
	}
	return out
}

// checkLadderAgreement runs one input through every engine of e and fails
// on any disagreement with the reference parser, parse trees included.
func checkLadderAgreement(t *testing.T, e *fuzzEngine, input string) {
	t.Helper()
	tree, err := e.parser.Parse(input)
	want := err == nil
	if got, _ := e.comp.Parse(input); !reflect.DeepEqual(got, tree) {
		t.Fatalf("%s: Compiled.Parse and the reference Parser.Parse build different trees for %q", e.name, input)
	}
	got, rung := e.comp.AcceptsRung(input)
	if got != want {
		t.Fatalf("%s: ladder says %v via %s rung, reference parser says %v for %q",
			e.name, got, rung, want, input)
	}
	if earley := e.comp.AcceptsEarley(input); earley != want {
		t.Fatalf("%s: Earley rung says %v, reference parser says %v for %q",
			e.name, earley, want, input)
	}
	if e.comp.PrefilterRejects(input) && want {
		t.Fatalf("%s: DFA prefilter rejects %q, which the reference accepts", e.name, input)
	}
}

// FuzzAcceptsDifferential: arbitrary inputs, every grammar, every engine.
func FuzzAcceptsDifferential(f *testing.F) {
	engines := buildFuzzEngines(f)
	for _, seed := range []string{
		"", "a", "ab", "aaaa", "s/a/b/", "s/a/b/g", "s0a0b0",
		"<item>hello</item>", "<a><b>x</b></a>", "<a></b>", "((", "(()())",
		"\x00\xff<", "aab", "s/[a-z]*/X/p",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, e := range engines {
			in := input
			if len(in) > e.cap {
				in = in[:e.cap]
			}
			checkLadderAgreement(t, e, in)
		}
	})
}

// roundTripProbes are the deterministic membership probes the round-trip
// target checks on both compilations of a fuzzed grammar.
var roundTripProbes = []string{
	"", "a", "b", "ab", "aa", "ba", "abc", "0", "1", "<x>", "((", "()",
}

// FuzzCompileRoundTrip: arbitrary grammar text must never panic the
// unmarshaler, marshaling must reach a fixed point, and recompiling the
// round-tripped grammar must preserve every probe verdict across the whole
// ladder.
func FuzzCompileRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"start S\nS -> \"a\" S\nS ->\n",
		"start S\nS -> S S\nS -> \"a\"\nS ->\n",
		"start A\nA -> B\nB -> A\nA -> \"a\"\nB -> {b-d}\n",
		"start S\nS -> \"(\" S \")\" S\nS ->\n",
		"start S\nS -> {a-z} S\nS -> {0-9}\n",
		"start S\n",
		"not a grammar",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 4096 {
			return // bound Compile cost; long tails add no parser coverage
		}
		g, err := cfg.Unmarshal(text)
		if err != nil {
			return
		}
		m := cfg.Marshal(g)
		g2, err := cfg.Unmarshal(m)
		if err != nil {
			t.Fatalf("re-unmarshal of marshaled grammar failed: %v\n%s", err, m)
		}
		if m2 := cfg.Marshal(g2); m2 != m {
			t.Fatalf("marshal not a fixed point:\nfirst:\n%s\nsecond:\n%s", m, m2)
		}
		parser := cfg.NewParser(g)
		c1, c2 := cfg.Compile(g), cfg.Compile(g2)
		for _, in := range roundTripProbes {
			want := parser.Accepts(in)
			if got, rung := c1.AcceptsRung(in); got != want {
				t.Fatalf("ladder says %v via %s rung, parser says %v for %q\n%s", got, rung, want, in, m)
			}
			if got, rung := c2.AcceptsRung(in); got != want {
				t.Fatalf("round-tripped ladder says %v via %s rung, parser says %v for %q\n%s", got, rung, want, in, m)
			}
			if c1.PrefilterRejects(in) && want {
				t.Fatalf("prefilter rejects %q, which the parser accepts\n%s", in, m)
			}
		}
	})
}

// spliceGrammar is one grammar the splice target mutates derivations of.
type spliceGrammar struct {
	name string
	g    *cfg.Grammar
	comp *cfg.Compiled
}

// buildSpliceGrammars returns the pinned learned grammars at the default
// sampling depth and the productive pathological grammars at the small
// budget assertSamplerIdentity gives them.
func buildSpliceGrammars(tb testing.TB) []spliceGrammar {
	var out []spliceGrammar
	add := func(name string, g *cfg.Grammar, depth int) {
		comp := cfg.Compile(g)
		comp.MaxDepth = depth
		out = append(out, spliceGrammar{name: name, g: g, comp: comp})
	}
	for _, golden := range goldenNames {
		add(golden, loadGolden(tb, golden), cfg.DefaultSampleDepth)
	}
	paths := pathologicalGrammars()
	for _, name := range slices.Sorted(maps.Keys(paths)) {
		if g := paths[name]; g.Productive()[g.Start] {
			add(name, g, 8)
		}
	}
	return out
}

// checkDerivation recomputes d from the productions alone — a preorder
// walk that consumes one node per nonterminal symbol and one byte of text
// per terminal — and fails where a node's subtree size or span differs
// from the arena's, a node's symbol differs from its parent's production,
// or a byte falls outside its terminal class.
func checkDerivation(t *testing.T, sg spliceGrammar, d *cfg.Derivation) {
	t.Helper()
	text := d.Text()
	var walk func(k, pos int) (next, end int)
	walk = func(k, pos int) (int, int) {
		next, lo := k+1, pos
		for _, sym := range sg.g.Prods[d.NT(k)][d.Prod(k)] {
			if sym.IsNT() {
				if next >= d.Len() || d.NT(next) != sym.NT {
					t.Fatalf("%s: node %d: child %d does not derive %s", sg.name, k, next, sg.g.Names[sym.NT])
				}
				next, pos = walk(next, pos)
				continue
			}
			if pos >= len(text) || !sym.Set.Has(text[pos]) {
				t.Fatalf("%s: node %d: text at %d is not in %v", sg.name, k, pos, sym.Set)
			}
			pos++
		}
		if gotLo, gotHi := d.Span(k); d.Size(k) != next-k || gotLo != lo || gotHi != pos {
			t.Fatalf("%s: node %d has size %d span [%d,%d), recomputed size %d span [%d,%d)",
				sg.name, k, d.Size(k), gotLo, gotHi, next-k, lo, pos)
		}
		return next, pos
	}
	if d.NT(0) != sg.g.Start {
		t.Fatalf("%s: root derives %s, not the start symbol", sg.name, sg.g.Names[d.NT(0)])
	}
	if next, end := walk(0, 0); next != d.Len() || end != len(text) {
		t.Fatalf("%s: the tree covers %d of %d nodes and %d of %d bytes", sg.name, next, d.Len(), end, len(text))
	}
}

// TestFlattenParseTrees: the flattened parse tree of every bundled seed
// that parses under the golden sed and xml grammars must match its
// from-scratch recomputation and produce the seed itself.
func TestFlattenParseTrees(t *testing.T) {
	grammars := buildSpliceGrammars(t)
	for i, program := range []string{"sed", "xml"} {
		sg := grammars[i]
		parsed := 0
		for _, seed := range programs.ByName(program).Seeds() {
			tree, err := sg.comp.Parse(seed)
			if err != nil {
				continue
			}
			parsed++
			d := tree.Flatten(seed)
			checkDerivation(t, sg, d)
			if string(d.Text()) != seed {
				t.Fatalf("%s: flattened %q produces %q", sg.name, seed, d.Text())
			}
		}
		if parsed == 0 {
			t.Fatalf("%s: no %s seed parses", sg.name, program)
		}
	}
}

// FuzzDerivSplice: a grammar index, an rng seed and up to
// fuzz.MaxMutations splices, each replacing a random node's subtree with a
// fresh sample from its nonterminal, as the grammar fuzzer's Next does.
// Every intermediate derivation must match its from-scratch recomputation,
// and the final text must be in the grammar's language.
func FuzzDerivSplice(f *testing.F) {
	grammars := buildSpliceGrammars(f)
	for gi := range grammars {
		f.Add(uint8(gi), int64(gi+1), uint8(fuzz.MaxMutations))
	}
	f.Fuzz(func(t *testing.T, gi uint8, seed int64, mutations uint8) {
		sg := grammars[int(gi)%len(grammars)]
		rng := rand.New(rand.NewSource(seed))
		var d, fresh cfg.Derivation
		sg.comp.SampleInto(&d, rng, sg.g.Start)
		checkDerivation(t, sg, &d)
		for i := 0; i < int(mutations)%(fuzz.MaxMutations+1); i++ {
			k := rng.Intn(d.Len())
			sg.comp.SampleInto(&fresh, rng, d.NT(k))
			d.Splice(k, &fresh)
			checkDerivation(t, sg, &d)
		}
		if text := string(d.Text()); !sg.comp.AcceptsEarley(text) {
			t.Fatalf("%s: spliced text %q is not in the language", sg.name, text)
		}
	})
}
