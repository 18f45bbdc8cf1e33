package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/oracle"
	"glade/internal/rex"
)

// xmlParse recognizes the paper's Figure 1 language L(CXML):
// A → (a + ... + z + <a>A</a>)*.
func xmlParse(s string) bool {
	i := 0
	d := 0
	for i < len(s) {
		switch {
		case strings.HasPrefix(s[i:], "<a>"):
			d++
			i += 3
		case strings.HasPrefix(s[i:], "</a>"):
			d--
			if d < 0 {
				return false
			}
			i += 4
		case s[i] >= 'a' && s[i] <= 'z':
			i++
		default:
			return false
		}
	}
	return d == 0
}

func xmlOpts() Options {
	opts := DefaultOptions()
	// Restrict character generalization to the language's alphabet to keep
	// the trace identical to the paper (the result is the same either way).
	opts.GenAlphabet = bytesets.Range('a', 'z').Union(bytesets.OfString("</>"))
	return opts
}

var oXML = oracle.Func(xmlParse)

func TestXMLOracleSanity(t *testing.T) {
	valid := []string{"", "hi", "<a></a>", "<a>hi</a>", "<a><a>x</a>y</a>", "ab<a>c</a>de"}
	for _, s := range valid {
		if !oXML(s) {
			t.Fatalf("oracle rejects valid %q", s)
		}
	}
	invalid := []string{"<a>", "</a>", "<a>hi</a", "<a><a></a>", "A", "<b></b>", "<>"}
	for _, s := range invalid {
		if oXML(s) {
			t.Fatalf("oracle accepts invalid %q", s)
		}
	}
}

// TestRunningExamplePhase1 reproduces Figure 2 steps R1-R9: the seed
// <a>hi</a> must generalize to exactly (<a>(h + i)*</a>)*.
func TestRunningExamplePhase1(t *testing.T) {
	opts := xmlOpts()
	opts.CharGen = false
	opts.Phase2 = false
	res, err := Learn(context.Background(), []string{"<a>hi</a>"}, oXML, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := rex.String(res.Regex)
	want := "(<a>(h + i)*</a>)*"
	if got != want {
		t.Fatalf("phase 1 regex = %s, want %s", got, want)
	}
}

// TestRunningExampleTrace checks the intermediate languages of Figure 2.
func TestRunningExampleTrace(t *testing.T) {
	opts := xmlOpts()
	opts.CharGen = false
	opts.Phase2 = false
	var trace []string
	opts.Logf = func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf(format, args...))
	}
	if _, err := Learn(context.Background(), []string{"<a>hi</a>"}, oXML, opts); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(trace, "\n")
	// Key intermediate languages from Figure 2, in order.
	milestones := []string{
		"([<a>hi</a>]alt)*",            // R1
		"([<a>hi</a>]rep)*",            // R2 (alt demoted to rep)
		"(<a>([hi]alt)*[</a>]rep)*",    // R3
		"(<a>([hi]alt)*</a>)*",         // R4
		"(<a>([h]rep + [i]alt)*</a>)*", // R5
	}
	pos := 0
	for _, m := range milestones {
		idx := strings.Index(joined[pos:], m)
		if idx < 0 {
			t.Fatalf("milestone %q not found in order in trace:\n%s", m, joined)
		}
		pos += idx
	}
}

// TestRunningExampleCharGen reproduces §6.2: h and i generalize to [a-z].
func TestRunningExampleCharGen(t *testing.T) {
	opts := xmlOpts()
	opts.Phase2 = false
	res, err := Learn(context.Background(), []string{"<a>hi</a>"}, oXML, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := rex.String(res.Regex)
	want := "(<a>([a-z] + [a-z])*</a>)*"
	if got != want {
		t.Fatalf("char-gen regex = %s, want %s", got, want)
	}
}

// TestRunningExamplePhase2 reproduces §5/§6.2 end to end: the final grammar
// must equal L(CXML) — nested tags accepted, imbalance rejected.
func TestRunningExamplePhase2(t *testing.T) {
	res, err := Learn(context.Background(), []string{"<a>hi</a>"}, oXML, xmlOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Merged != 1 {
		t.Fatalf("Merged = %d, want 1", res.Stats.Merged)
	}
	p := cfg.Compile(res.Grammar)
	mustAccept := []string{
		"", "xyz", "<a></a>", "<a>hi</a>",
		"<a><a>deep</a></a>",
		"ab<a>cd<a>ef</a>gh</a>ij",
		"<a><a><a>x</a></a></a>",
	}
	for _, s := range mustAccept {
		if !p.Accepts(s) {
			t.Errorf("synthesized grammar rejects %q", s)
		}
	}
	mustReject := []string{"<a>", "</a><a>", "<a><a>x</a>", "<b></b>", "HI"}
	for _, s := range mustReject {
		if p.Accepts(s) {
			t.Errorf("synthesized grammar accepts %q", s)
		}
	}
}

// TestPrecisionOnXML: every string sampled from the synthesized grammar
// must be valid — the grammar is a subset of L(CXML).
func TestPrecisionOnXML(t *testing.T) {
	res, err := Learn(context.Background(), []string{"<a>hi</a>"}, oXML, xmlOpts())
	if err != nil {
		t.Fatal(err)
	}
	sm := cfg.Compile(res.Grammar)
	sm.MaxDepth = 24
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		s := sm.Sample(rng)
		if !oXML(s) {
			t.Fatalf("sampled invalid string %q", s)
		}
	}
}

// TestP1VariantHasNoRecursion: without phase 2 the language stays regular —
// nesting one level deeper than the seed is rejected.
func TestP1VariantHasNoRecursion(t *testing.T) {
	opts := xmlOpts()
	opts.Phase2 = false
	res, err := Learn(context.Background(), []string{"<a>hi</a>"}, oXML, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Compile(res.Grammar)
	if !p.Accepts("<a>xyz</a>") {
		t.Fatal("P1 grammar rejects flat string")
	}
	if p.Accepts("<a><a>x</a></a>") {
		t.Fatal("P1 grammar accepts nested tags; phase 2 leaked in")
	}
}

// TestCharGenOffKeepsSeedLetters: disabling character generalization keeps
// the letters restricted to those in the seed (§8.2's ablation).
func TestCharGenOffKeepsSeedLetters(t *testing.T) {
	opts := xmlOpts()
	opts.CharGen = false
	res, err := Learn(context.Background(), []string{"<a>hi</a>"}, oXML, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Compile(res.Grammar)
	if !p.Accepts("<a>hihi</a>") {
		t.Fatal("rejects seed letters")
	}
	if p.Accepts("<a>xy</a>") {
		t.Fatal("accepts letters outside the seed with char-gen off")
	}
}

func TestRejectedSeedIsError(t *testing.T) {
	if _, err := Learn(context.Background(), []string{"<a>"}, oXML, xmlOpts()); err == nil {
		t.Fatal("invalid seed accepted")
	}
	if _, err := Learn(context.Background(), nil, oXML, xmlOpts()); err == nil {
		t.Fatal("empty seed set accepted")
	}
}

// TestMultiSeedSkip: a second seed already covered by the first tree is
// skipped (§6.1).
func TestMultiSeedSkip(t *testing.T) {
	res, err := Learn(context.Background(), []string{"<a>hi</a>", "<a>hh</a>", "<a>ii</a>"}, oXML, xmlOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SeedsSkipped != 2 {
		t.Fatalf("SeedsSkipped = %d, want 2", res.Stats.SeedsSkipped)
	}
}

// TestMultiSeedUnion: seeds from disjoint shapes produce a top-level
// alternation covering both, and the phase-two merge checks (which
// substitute each repetition body into the other's context) correctly
// refuse to conflate the two shapes.
func TestMultiSeedUnion(t *testing.T) {
	// Oracle: (a…a) or [b…b] — bracket kind must match the letter.
	o := oracle.Func(func(s string) bool {
		if len(s) >= 2 && s[0] == '(' && s[len(s)-1] == ')' {
			inner := s[1 : len(s)-1]
			return strings.Count(inner, "a") == len(inner)
		}
		if len(s) >= 2 && s[0] == '[' && s[len(s)-1] == ']' {
			inner := s[1 : len(s)-1]
			return strings.Count(inner, "b") == len(inner)
		}
		return false
	})
	opts := DefaultOptions()
	opts.GenAlphabet = bytesets.OfString("ab()[]")
	res, err := Learn(context.Background(), []string{"(aa)", "[bb]"}, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Compile(res.Grammar)
	for _, s := range []string{"()", "(a)", "(aaaa)", "[]", "[bbb]"} {
		if !p.Accepts(s) {
			t.Errorf("rejects %q", s)
		}
	}
	sm := cfg.Compile(res.Grammar)
	sm.MaxDepth = 20
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		s := sm.Sample(rng)
		if !o(s) {
			t.Fatalf("sampled invalid %q (shapes conflated)", s)
		}
	}
}

// TestPhase2OvergeneralizationLimitation documents the §7 limitation
// faithfully: when two repetition subexpressions both occur in empty
// contexts, the merge checks cannot distinguish them and GLADE merges,
// trading precision for recall. The target "all a's or all b's" therefore
// generalizes to (a+b)*.
func TestPhase2OvergeneralizationLimitation(t *testing.T) {
	o := oracle.Func(func(s string) bool {
		return strings.Count(s, "a") == len(s) || strings.Count(s, "b") == len(s)
	})
	opts := DefaultOptions()
	opts.GenAlphabet = bytesets.OfString("ab")
	res, err := Learn(context.Background(), []string{"aa", "bb"}, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Merged == 0 {
		t.Fatal("expected the empty-context stars to merge (paper §5.3 checks pass)")
	}
	if !cfg.Compile(res.Grammar).Accepts("ab") {
		t.Fatal("expected the documented overgeneralization to (a+b)*")
	}
}

// TestDyck: GLADE learns a matching-parentheses grammar (Def 5.2) from one
// seed — the headline capability of phase 2.
func TestDyck(t *testing.T) {
	o := oracle.Func(func(s string) bool {
		d := 0
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '(':
				d++
			case ')':
				d--
				if d < 0 {
					return false
				}
			default:
				return false
			}
		}
		return d == 0
	})
	opts := DefaultOptions()
	opts.GenAlphabet = bytesets.OfString("()")
	res, err := Learn(context.Background(), []string{"(())"}, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Compile(res.Grammar)
	for _, s := range []string{"", "()", "(())", "((()))", "()()", "(()())"} {
		if !p.Accepts(s) {
			t.Errorf("rejects balanced %q", s)
		}
	}
	for _, s := range []string{"(", ")", ")(", "(()"} {
		if p.Accepts(s) {
			t.Errorf("accepts unbalanced %q", s)
		}
	}
	sm := cfg.Compile(res.Grammar)
	sm.MaxDepth = 20
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		if s := sm.Sample(rng); !o(s) {
			t.Fatalf("sampled invalid %q", s)
		}
	}
}

// TestTimeoutReturnsPartialResult: with an immediate deadline the learner
// must still terminate and return a grammar containing the seed.
func TestTimeoutReturnsPartialResult(t *testing.T) {
	opts := xmlOpts()
	opts.Timeout = 1 // one nanosecond: expires immediately
	res, err := Learn(context.Background(), []string{"<a>hi</a>"}, oXML, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut {
		t.Fatal("TimedOut not reported")
	}
	p := cfg.Compile(res.Grammar)
	if !p.Accepts("<a>hi</a>") {
		t.Fatal("partial grammar does not contain the seed")
	}
}

// TestSeedAlwaysInLanguage is the core monotonicity invariant (Prop 4.1):
// whatever the oracle, the seed remains in the learned language.
func TestSeedAlwaysInLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	oracles := []oracle.Func{
		oXML,
		oracle.Func(func(s string) bool { return len(s)%2 == 0 }),
		oracle.Func(func(s string) bool { return !strings.Contains(s, "zz") }),
		oracle.Func(func(s string) bool { return true }),
	}
	opts := DefaultOptions()
	opts.GenAlphabet = bytesets.OfString("abz<>/")
	for _, o := range oracles {
		for trial := 0; trial < 6; trial++ {
			seed := randomSeed(rng)
			if !o(seed) {
				continue
			}
			res, err := Learn(context.Background(), []string{seed}, o, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !cfg.Compile(res.Grammar).Accepts(seed) {
				t.Fatalf("seed %q not in learned language", seed)
			}
		}
	}
}

func randomSeed(rng *rand.Rand) string {
	n := rng.Intn(8)
	b := make([]byte, n*2)
	letters := "ab<>/z"
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// TestStatsPopulated sanity-checks the counters.
func TestStatsPopulated(t *testing.T) {
	res, err := Learn(context.Background(), []string{"<a>hi</a>"}, oXML, xmlOpts())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Candidates == 0 || s.Checks == 0 || s.OracleQueries == 0 {
		t.Fatalf("stats not populated: %+v", s)
	}
	if s.CharGenChecks == 0 {
		t.Fatal("char-gen checks not counted")
	}
	if s.MergePairs == 0 {
		t.Fatal("merge pairs not counted")
	}
	if s.Seeds != 1 {
		t.Fatalf("Seeds = %d", s.Seeds)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(0, 1)
	uf.union(2, 3)
	uf.union(1, 3)
	if uf.find(0) != uf.find(2) {
		t.Fatal("union not transitive")
	}
	if uf.find(4) == uf.find(0) || uf.find(4) == uf.find(5) {
		t.Fatal("spurious union")
	}
	uf.union(4, 4)
	if uf.find(4) != uf.find(4) {
		t.Fatal("self union broke find")
	}
}

func TestRender(t *testing.T) {
	n := &node{kind: nStar, kids: []*node{{
		kind: nSeq,
		kids: []*node{
			lit("<a>", Context{}),
			{kind: nHole, hole: hAlt, str: "hi"},
			{kind: nHole, hole: hRep, str: "</a>"},
		},
	}}}
	got := render(n)
	want := "(<a>[hi]alt[</a>]rep)*"
	if got != want {
		t.Fatalf("render = %q, want %q", got, want)
	}
}
