package metrics

import (
	"math"
	"math/rand"
	"testing"

	"glade/internal/automata"
	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/rex"
)

func grammarAB() *cfg.Grammar {
	g := cfg.New()
	s := g.AddNT("S")
	g.Add(s)
	g.Add(s, cfg.T(bytesets.OfString("ab")), cfg.N(s))
	return g
}

func grammarA() *cfg.Grammar {
	g := cfg.New()
	s := g.AddNT("S")
	g.Add(s)
	g.Add(s, cfg.TByte('a'), cfg.N(s))
	return g
}

func TestF1(t *testing.T) {
	if got := (Eval{Precision: 1, Recall: 1}).F1(); got != 1 {
		t.Fatalf("F1 = %v", got)
	}
	if got := (Eval{}).F1(); got != 0 {
		t.Fatalf("F1 of zero = %v", got)
	}
	e := Eval{Precision: 0.5, Recall: 1}
	if math.Abs(e.F1()-2.0/3.0) > 1e-9 {
		t.Fatalf("F1 = %v", e.F1())
	}
}

func TestEvaluateIdenticalLanguages(t *testing.T) {
	a := NewGrammarLang(grammarAB(), 16)
	b := NewGrammarLang(grammarAB(), 16)
	e := Evaluate(a, b, 300, rand.New(rand.NewSource(1)))
	if e.Precision != 1 || e.Recall != 1 {
		t.Fatalf("identical languages: %+v", e)
	}
}

func TestEvaluateSubsetLanguage(t *testing.T) {
	sub := NewGrammarLang(grammarA(), 16)    // a*
	super := NewGrammarLang(grammarAB(), 16) // (a+b)*
	e := Evaluate(sub, super, 400, rand.New(rand.NewSource(2)))
	if e.Precision != 1 {
		t.Fatalf("subset precision = %v", e.Precision)
	}
	if e.Recall >= 0.95 || e.Recall <= 0.05 {
		t.Fatalf("subset recall = %v, expected strictly partial", e.Recall)
	}
}

func TestEvaluateEmptyLearned(t *testing.T) {
	g := cfg.New()
	s := g.AddNT("S")
	g.Add(s, cfg.N(s)) // unproductive
	empty := NewGrammarLang(g, 8)
	super := NewGrammarLang(grammarAB(), 16)
	e := Evaluate(empty, super, 100, rand.New(rand.NewSource(3)))
	if e.PrecisionN != 0 {
		t.Fatalf("sampled from empty language: %+v", e)
	}
	if e.Recall != 0 {
		t.Fatalf("empty language recall = %v", e.Recall)
	}
}

func TestDFALang(t *testing.T) {
	d := automata.FromRex(rex.Rep(rex.Literal("ab")), []byte("ab"))
	l := &DFALang{D: d, MaxLen: 12}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		s, ok := l.Sample(rng)
		if !ok {
			t.Fatal("sampler failed")
		}
		if !l.Accepts(s) {
			t.Fatalf("sampled %q not accepted", s)
		}
	}
}

func TestOracleLang(t *testing.T) {
	l := &OracleLang{
		O: func(s string) bool { return s == "x" },
		S: func(rng *rand.Rand) (string, bool) { return "x", true },
	}
	e := Evaluate(l, l, 50, rand.New(rand.NewSource(5)))
	if e.Precision != 1 || e.Recall != 1 {
		t.Fatalf("OracleLang self-eval: %+v", e)
	}
}
