package fuzz

import (
	"context"
	"math/rand"
	"testing"

	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/oracle"
	"glade/internal/programs"
)

func TestNaiveZeroMutationsReturnsSeed(t *testing.T) {
	f := NewNaive([]string{"seed"}, []byte("ab"))
	rng := rand.New(rand.NewSource(1))
	seen := false
	for i := 0; i < 200; i++ {
		if f.Next(rng) == "seed" {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("naive fuzzer never reproduced the unmutated seed (n=0 case)")
	}
}

func TestNaiveEmptySeeds(t *testing.T) {
	f := NewNaive(nil, nil)
	if got := f.Next(rand.New(rand.NewSource(2))); got != "" {
		t.Fatalf("Next with no seeds = %q", got)
	}
}

func TestNaiveMutates(t *testing.T) {
	f := NewNaive([]string{"aaaa"}, []byte("b"))
	rng := rand.New(rand.NewSource(3))
	distinct := map[string]bool{}
	for i := 0; i < 300; i++ {
		distinct[f.Next(rng)] = true
	}
	if len(distinct) < 20 {
		t.Fatalf("naive fuzzer produced only %d distinct inputs", len(distinct))
	}
}

func TestAFLQueueGrowsOnNewCoverage(t *testing.T) {
	p := programs.Sed()
	f := NewAFL(p.Seeds())
	rng := rand.New(rand.NewSource(4))
	before := f.QueueLen()
	for i := 0; i < 3000; i++ {
		in := f.Next(rng)
		f.Observe(in, p.Run(in))
	}
	if f.QueueLen() <= before {
		t.Fatalf("queue did not grow: %d -> %d", before, f.QueueLen())
	}
}

func TestAFLHavocNoPanics(t *testing.T) {
	f := NewAFL([]string{"", "x", "hello world"})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		_ = f.Next(rng)
		f.Observe("", programs.Result{})
	}
}

// xmlGrammar learns the running-example grammar to drive the fuzzer.
func xmlGrammar(t *testing.T) (*cfg.Grammar, []string) {
	t.Helper()
	o := oracle.Func(func(s string) bool {
		d, i := 0, 0
		for i < len(s) {
			switch {
			case len(s)-i >= 3 && s[i:i+3] == "<a>":
				d++
				i += 3
			case len(s)-i >= 4 && s[i:i+4] == "</a>":
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
	})
	opts := core.DefaultOptions()
	opts.GenAlphabet = bytesets.Range('a', 'z').Union(bytesets.OfString("</>"))
	res, err := core.Learn(context.Background(), []string{"<a>hi</a>"}, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Grammar, []string{"<a>hi</a>"}
}

func TestGrammarFuzzerStaysInLanguage(t *testing.T) {
	g, seeds := xmlGrammar(t)
	f := NewGrammar(g, seeds)
	if f.ParsedSeeds() != 1 {
		t.Fatalf("ParsedSeeds = %d", f.ParsedSeeds())
	}
	c := cfg.Compile(g)
	rng := rand.New(rand.NewSource(6))
	distinct := map[string]bool{}
	for i := 0; i < 400; i++ {
		s := f.Next(rng)
		if !c.Accepts(s) {
			t.Fatalf("generated %q outside the grammar", s)
		}
		distinct[s] = true
	}
	if len(distinct) < 50 {
		t.Fatalf("grammar fuzzer produced only %d distinct inputs", len(distinct))
	}
}

func TestGrammarFuzzerUnparsedFallback(t *testing.T) {
	g := cfg.New()
	s := g.AddNT("S")
	g.Add(s, cfg.TByte('x'))
	f := NewGrammar(g, []string{"not-in-language"})
	if f.ParsedSeeds() != 0 {
		t.Fatal("unparseable seed counted as parsed")
	}
	if got := f.Next(rand.New(rand.NewSource(7))); got != "not-in-language" {
		t.Fatalf("fallback Next = %q", got)
	}
}

func TestRunCoverage(t *testing.T) {
	p := programs.Sed()
	f := NewNaive(p.Seeds(), []byte("sdpq/ab*[]{}3,;\n"))
	rng := rand.New(rand.NewSource(8))
	run := RunCoverage(p, f, 2000, rng, 500)
	if run.Samples != 2000 || run.Fuzzer != "naive" || run.Program != "sed" {
		t.Fatalf("run metadata wrong: %+v", run)
	}
	if run.Valid == 0 {
		t.Fatal("no valid inputs generated")
	}
	if run.SeedCover == 0 {
		t.Fatal("seed coverage is zero")
	}
	if len(run.Curve) != 4 {
		t.Fatalf("expected 4 checkpoints, got %d", len(run.Curve))
	}
	for i := 1; i < len(run.Curve); i++ {
		if run.Curve[i].IncrCover < run.Curve[i-1].IncrCover {
			t.Fatal("incremental coverage decreased over time")
		}
	}
	if run.Curve[len(run.Curve)-1].IncrCover != run.IncrCover {
		t.Fatal("final checkpoint disagrees with total")
	}
}

func TestNormalized(t *testing.T) {
	base := CoverageRun{IncrCover: 10}
	if got := (CoverageRun{IncrCover: 25}).Normalized(base); got != 2.5 {
		t.Fatalf("Normalized = %v", got)
	}
	zero := CoverageRun{}
	if got := zero.Normalized(zero); got != 1 {
		t.Fatalf("0/0 Normalized = %v", got)
	}
	if got := (CoverageRun{IncrCover: 5}).Normalized(zero); got != 0 {
		t.Fatalf("x/0 Normalized = %v", got)
	}
}

// TestGrammarFuzzerBeatsNaiveOnXML is a miniature of Figure 7(a): on the
// XML program, the grammar-based fuzzer's valid incremental coverage should
// exceed the naive fuzzer's.
func TestGrammarFuzzerBeatsNaiveOnXML(t *testing.T) {
	g, seeds := xmlGrammar(t)
	p := programs.XML()
	rngA := rand.New(rand.NewSource(9))
	rngB := rand.New(rand.NewSource(9))
	naive := RunCoverage(p, NewNaive(seeds, nil), 3000, rngA, 0)
	glade := RunCoverage(p, NewGrammar(g, seeds), 3000, rngB, 0)
	if glade.Valid <= naive.Valid {
		t.Fatalf("glade valid=%d <= naive valid=%d", glade.Valid, naive.Valid)
	}
	if glade.IncrCover < naive.IncrCover {
		t.Fatalf("glade incr=%d < naive incr=%d", glade.IncrCover, naive.IncrCover)
	}
}
