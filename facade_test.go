package glade

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"glade/internal/bytesets"
)

// dyck is the oracle used across facade tests: balanced parentheses.
func dyck(s string) bool {
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
}

func learnDyck(t *testing.T) *Result {
	t.Helper()
	opts := DefaultOptions()
	opts.GenAlphabet = bytesets.OfString("()")
	res, err := LearnContext(context.Background(), []string{"(())"}, OracleFunc(dyck), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeLearnParserSampler(t *testing.T) {
	res := learnDyck(t)
	c := Compile(res.Grammar)
	if !c.Accepts("((()))()") || c.Accepts(")(") {
		t.Fatal("facade parser wrong")
	}
	if _, err := c.Parse("(())"); err != nil {
		t.Fatalf("facade parse: %v", err)
	}
	sm := Compile(res.Grammar)
	sm.MaxDepth = 16
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if s := sm.Sample(rng); !dyck(s) {
			t.Fatalf("facade sampler produced invalid %q", s)
		}
	}
	if s := Sample(res.Grammar, rng); !dyck(s) {
		t.Fatalf("Sample produced invalid %q", s)
	}
}

func TestFacadeFuzzers(t *testing.T) {
	res := learnDyck(t)
	gf := NewGrammarFuzzer(res.Grammar, []string{"(())"})
	nf := NewNaiveFuzzer([]string{"(())"}, []byte("()"))
	rng := rand.New(rand.NewSource(2))
	gValid, nValid := 0, 0
	for i := 0; i < 200; i++ {
		if dyck(gf.Next(rng)) {
			gValid++
		}
		if dyck(nf.Next(rng)) {
			nValid++
		}
	}
	if gValid != 200 {
		t.Fatalf("grammar fuzzer escaped the exact language: %d/200 valid", gValid)
	}
	if nValid >= gValid {
		t.Fatalf("naive fuzzer validity %d >= grammar fuzzer %d", nValid, gValid)
	}
}

// TestLearnDeterministic: identical inputs and options must give an
// identical grammar (the learner's internal sampling is seeded).
func TestLearnDeterministic(t *testing.T) {
	a := learnDyck(t)
	b := learnDyck(t)
	if a.Grammar.String() != b.Grammar.String() {
		t.Fatal("learning is nondeterministic")
	}
	if a.Stats.OracleQueries != b.Stats.OracleQueries {
		t.Fatalf("query counts differ: %d vs %d", a.Stats.OracleQueries, b.Stats.OracleQueries)
	}
}

// TestSeedsAlwaysCovered: for a spread of oracles, every accepted seed is in
// the learned language — the monotonicity guarantee surfaced end to end.
func TestSeedsAlwaysCovered(t *testing.T) {
	oracles := map[string]func(string) bool{
		"dyck":     dyck,
		"even":     func(s string) bool { return len(s)%2 == 0 },
		"anything": func(s string) bool { return true },
		"no-xx":    func(s string) bool { return !strings.Contains(s, "xx") },
	}
	seedSets := [][]string{
		{"(())"},
		{"()", "(())()"},
		{"xyxy", "yy"},
	}
	for name, o := range oracles {
		for _, seeds := range seedSets {
			ok := true
			for _, s := range seeds {
				if !o(s) {
					ok = false
				}
			}
			if !ok {
				continue
			}
			opts := DefaultOptions()
			opts.GenAlphabet = bytesets.OfString("()xy")
			res, err := LearnContext(context.Background(), seeds, OracleFunc(o), opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c := Compile(res.Grammar)
			for _, s := range seeds {
				if !c.Accepts(s) {
					t.Fatalf("%s: seed %q missing from learned language", name, s)
				}
			}
		}
	}
}

func TestRegexExposed(t *testing.T) {
	res := learnDyck(t)
	if res.Regex == nil {
		t.Fatal("phase-one regex not exposed")
	}
}
