package cfg_test

// Differential property tests for the compiled-grammar engine: the
// compiled recognizer must agree byte for byte with the map-based Earley
// Parser, and the compiled sampler must emit byte-identical streams to
// Sampler, on every grammar the learner actually produces, on handcrafted
// pathological grammars, and on randomly generated ones. A concurrency
// test hammers one Compiled from many goroutines under -race.
//
// External test package so the real learner can run (core imports cfg).

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/fuzz"
	"glade/internal/oracle"
	"glade/internal/programs"
	"glade/internal/targets"
)

// assertEngineAgreement checks Parser vs Compiled (both Accepts and
// AcceptsAll) on every input.
func assertEngineAgreement(t *testing.T, name string, g *cfg.Grammar, inputs []string) {
	t.Helper()
	parser := cfg.NewParser(g)
	comp := cfg.Compile(g)
	want := make([]bool, len(inputs))
	for i, in := range inputs {
		want[i] = parser.Accepts(in)
		got, rung := comp.AcceptsRung(in)
		if got != want[i] {
			t.Fatalf("%s: Compiled.Accepts(%q) = %v via %s rung, Parser says %v", name, in, got, rung, want[i])
		}
		// Every rung must agree with the map-based reference on its own:
		// the Earley rung directly, the prefilter in its sound direction
		// (a DFA rejection must never contradict an accept).
		if e := comp.AcceptsEarley(in); e != want[i] {
			t.Fatalf("%s: AcceptsEarley(%q) = %v, Parser says %v", name, in, e, want[i])
		}
		if comp.PrefilterRejects(in) && want[i] {
			t.Fatalf("%s: DFA prefilter rejects %q, which the reference accepts", name, in)
		}
	}
	for _, workers := range []int{1, 4} {
		got := comp.AcceptsAll(inputs, workers)
		for i := range inputs {
			if got[i] != want[i] {
				t.Fatalf("%s: AcceptsAll(workers=%d)[%d] = %v for %q, Parser says %v",
					name, workers, i, got[i], inputs[i], want[i])
			}
		}
	}
}

// assertSamplerIdentity checks that Compiled.Sample, Compiled.SampleInto
// and Sampler.Sample consume the rng identically: same seeds in, same
// strings out. It also checks the in-language property — every sampled
// string must be accepted by both engines. depth is the sampling budget:
// learned grammars use DefaultSampleDepth, but arbitrary recursive
// grammars need a small budget (depth bounds a sample tree's height, not
// its width, and a random super-critical grammar can fill the whole
// 4^depth frontier).
func assertSamplerIdentity(t *testing.T, name string, g *cfg.Grammar, n, depth int) []string {
	t.Helper()
	if !g.Productive()[g.Start] {
		return nil
	}
	sm := cfg.NewSampler(g, depth)
	comp := cfg.Compile(g)
	comp.MaxDepth = depth
	parser := cfg.NewParser(g)
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	var out []string
	for i := 0; i < n; i++ {
		a, b := sm.Sample(rngA), comp.Sample(rngB)
		if a != b {
			t.Fatalf("%s: sample %d diverged: Sampler %q, Compiled %q", name, i, a, b)
		}
		if !parser.Accepts(a) || !comp.Accepts(a) {
			t.Fatalf("%s: sampled string %q not accepted by its own grammar", name, a)
		}
		out = append(out, a)
	}
	// A derivation sampled into the arena must produce the same text.
	rngA, rngB = rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	var d cfg.Derivation
	for i := 0; i < n/4+1; i++ {
		a := sm.SampleFrom(rngA, g.Start)
		comp.SampleInto(&d, rngB, g.Start)
		if b := string(d.Text()); a != b {
			t.Fatalf("%s: deriv sample %d diverged: Sampler %q, Compiled %q", name, i, a, b)
		}
	}
	return out
}

// corpusFor assembles the mixed accept/reject membership corpus for g:
// the seeds, the empty string, grammar samples (accepts), naive
// byte-level mutants of the seeds, and random strings over the grammar's
// terminal alphabet (mostly rejects). The differential suite, the
// prefilter soundness test and the compiled-engine benchmarks all run on
// it, drawn from a fixed rand seed.
func corpusFor(g *cfg.Grammar, seeds []string) []string {
	rng := rand.New(rand.NewSource(1))
	corpus := append([]string(nil), seeds...)
	corpus = append(corpus, "")
	if g.Productive()[g.Start] {
		sm := cfg.NewSampler(g, cfg.DefaultSampleDepth)
		for i := 0; i < 80; i++ {
			corpus = append(corpus, sm.Sample(rng))
		}
	}
	naive := fuzz.NewNaive(seeds, g.Terminals().Bytes())
	for i := 0; i < 60; i++ {
		corpus = append(corpus, naive.Next(rng))
	}
	alphabet := g.Terminals().Bytes()
	if len(alphabet) == 0 {
		alphabet = []byte("ab")
	}
	for i := 0; i < 40; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		corpus = append(corpus, string(b))
	}
	return corpus
}

// TestCompiledMatchesParserLearnedTargets runs the differential check on
// every grammar learned from the §8.2 target languages.
func TestCompiledMatchesParserLearnedTargets(t *testing.T) {
	for _, tgt := range targets.All() {
		opts := core.DefaultOptions()
		opts.Timeout = 30 * time.Second
		res, err := core.Learn(context.Background(), tgt.DocSeeds, oracle.AsCheck(tgt.Oracle), opts)
		if err != nil {
			t.Fatalf("%s: %v", tgt.Name, err)
		}
		assertEngineAgreement(t, "target "+tgt.Name, res.Grammar, corpusFor(res.Grammar, tgt.DocSeeds))
		assertSamplerIdentity(t, "target "+tgt.Name, res.Grammar, 40, cfg.DefaultSampleDepth)
	}
}

// TestCompiledMatchesParserLearnedPrograms runs the differential check on
// grammars learned from the §8.3 simulated programs' bundled seeds.
func TestCompiledMatchesParserLearnedPrograms(t *testing.T) {
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
			assertEngineAgreement(t, p.Name(), res.Grammar, corpusFor(res.Grammar, p.Seeds()))
			assertSamplerIdentity(t, p.Name(), res.Grammar, 40, cfg.DefaultSampleDepth)
		})
	}
}

// pathologicalGrammars are handcrafted stress shapes for the recognizer:
// left/right recursion, heavy ambiguity, nullable chains, unit cycles,
// epsilon-only and empty languages.
func pathologicalGrammars() map[string]*cfg.Grammar {
	out := map[string]*cfg.Grammar{}

	leftRec := cfg.New() // S -> S a | ε
	s := leftRec.AddNT("S")
	leftRec.Add(s, cfg.N(s), cfg.TByte('a'))
	leftRec.Add(s)
	out["left-recursion"] = leftRec

	rightRec := cfg.New() // S -> a S | ε
	s = rightRec.AddNT("S")
	rightRec.Add(s, cfg.TByte('a'), cfg.N(s))
	rightRec.Add(s)
	out["right-recursion"] = rightRec

	ambig := cfg.New() // S -> S S | a | ε
	s = ambig.AddNT("S")
	ambig.Add(s, cfg.N(s), cfg.N(s))
	ambig.Add(s, cfg.TByte('a'))
	ambig.Add(s)
	out["ambiguous-nullable"] = ambig

	cycle := cfg.New() // A -> B | a ; B -> A | b  (unit cycle)
	a := cycle.AddNT("A")
	b := cycle.AddNT("B")
	cycle.Add(a, cfg.N(b))
	cycle.Add(a, cfg.TByte('a'))
	cycle.Add(b, cfg.N(a))
	cycle.Add(b, cfg.TByte('b'))
	out["unit-cycle"] = cycle

	nullChain := cfg.New() // S -> A B ; A -> a | ε ; B -> b | ε
	s = nullChain.AddNT("S")
	a = nullChain.AddNT("A")
	b = nullChain.AddNT("B")
	nullChain.Add(s, cfg.N(a), cfg.N(b))
	nullChain.Add(a, cfg.TByte('a'))
	nullChain.Add(a)
	nullChain.Add(b, cfg.TByte('b'))
	nullChain.Add(b)
	out["nullable-chain"] = nullChain

	eps := cfg.New() // S -> ε
	s = eps.AddNT("S")
	eps.Add(s)
	out["epsilon-only"] = eps

	empty := cfg.New() // S with no productions: the empty language
	empty.AddNT("S")
	out["empty-language"] = empty

	dyck := cfg.New() // S -> ( S ) S | ε
	s = dyck.AddNT("S")
	dyck.Add(s, cfg.TByte('('), cfg.N(s), cfg.TByte(')'), cfg.N(s))
	dyck.Add(s)
	out["dyck"] = dyck

	classes := cfg.New() // S -> [a-c] S | [xy]
	s = classes.AddNT("S")
	classes.Add(s, cfg.T(bytesets.Range('a', 'c')), cfg.N(s))
	classes.Add(s, cfg.T(bytesets.Of('x', 'y')))
	out["byte-classes"] = classes

	return out
}

// TestCompiledMatchesParserPathological enumerates every string up to
// length 6 over a small alphabet and demands exact verdict agreement.
func TestCompiledMatchesParserPathological(t *testing.T) {
	alphabet := []byte("ab()xy")
	var inputs []string
	var grow func(prefix []byte, depth int)
	grow = func(prefix []byte, depth int) {
		inputs = append(inputs, string(prefix))
		if depth == 0 {
			return
		}
		for _, c := range alphabet {
			grow(append(prefix, c), depth-1)
		}
	}
	grow(nil, 4)
	for _, c := range alphabet { // a few longer strings
		inputs = append(inputs, string([]byte{c, c, c, c, c, c}), "((((((", "aaabbb")
	}
	for name, g := range pathologicalGrammars() {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: invalid test grammar: %v", name, err)
		}
		assertEngineAgreement(t, name, g, inputs)
		assertSamplerIdentity(t, name, g, 30, 8)
	}
}

// randomGrammar generates a small arbitrary grammar: random productions
// over a handful of nonterminals, mixing byte-class terminals, nonterminal
// references, and epsilon productions. Many are unproductive or
// non-nullable in interesting ways — exactly the point.
func randomGrammar(rng *rand.Rand) *cfg.Grammar {
	g := cfg.New()
	numNT := 1 + rng.Intn(5)
	for i := 0; i < numNT; i++ {
		g.AddNT(fmt.Sprintf("N%d", i))
	}
	alphabet := []byte("abc()")
	for nt := 0; nt < numNT; nt++ {
		for pi, prods := 0, 1+rng.Intn(3); pi < prods; pi++ {
			var syms []cfg.Sym
			for si, n := 0, rng.Intn(5); si < n; si++ {
				if rng.Intn(2) == 0 {
					syms = append(syms, cfg.N(rng.Intn(numNT)))
					continue
				}
				set := bytesets.Of(alphabet[rng.Intn(len(alphabet))])
				if rng.Intn(4) == 0 {
					set.Add(alphabet[rng.Intn(len(alphabet))])
				}
				syms = append(syms, cfg.T(set))
			}
			g.Add(nt, syms...)
		}
	}
	return g
}

// TestCompiledMatchesParserRandom fuzzes the two engines against each
// other over random grammars and random inputs.
func TestCompiledMatchesParserRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []byte("abc()")
	for trial := 0; trial < 150; trial++ {
		g := randomGrammar(rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random grammar: %v", trial, err)
		}
		inputs := []string{""}
		for i := 0; i < 40; i++ {
			b := make([]byte, rng.Intn(10))
			for j := range b {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
			inputs = append(inputs, string(b))
		}
		if g.Productive()[g.Start] {
			sm := cfg.NewSampler(g, 6)
			for i := 0; i < 10; i++ {
				inputs = append(inputs, sm.Sample(rng))
			}
		}
		name := fmt.Sprintf("trial-%d", trial)
		assertEngineAgreement(t, name, g, inputs)
		assertSamplerIdentity(t, name, g, 10, 6)
	}
}

// TestCompiledConcurrent hammers one Compiled from 8 goroutines mixing
// Accepts, AcceptsAll, and Sample — the -race proof that the pooled
// scratch state is actually per-call.
func TestCompiledConcurrent(t *testing.T) {
	g := pathologicalGrammars()["dyck"]
	parser := cfg.NewParser(g)
	comp := cfg.Compile(g)
	rng := rand.New(rand.NewSource(5))
	var inputs []string
	var want []bool
	sm := cfg.NewSampler(g, cfg.DefaultSampleDepth)
	for i := 0; i < 200; i++ {
		var s string
		if i%2 == 0 {
			s = sm.Sample(rng)
		} else {
			b := make([]byte, rng.Intn(12))
			for j := range b {
				b[j] = "()"[rng.Intn(2)]
			}
			s = string(b)
		}
		inputs = append(inputs, s)
		want = append(want, parser.Accepts(s))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for round := 0; round < 30; round++ {
				for i, in := range inputs {
					if got := comp.Accepts(in); got != want[i] {
						errs <- fmt.Errorf("worker %d: Accepts(%q) = %v, want %v", w, in, got, want[i])
						return
					}
				}
				got := comp.AcceptsAll(inputs, 3)
				for i := range inputs {
					if got[i] != want[i] {
						errs <- fmt.Errorf("worker %d: AcceptsAll[%d] wrong", w, i)
						return
					}
				}
				if s := comp.Sample(rng); !comp.Accepts(s) {
					errs <- fmt.Errorf("worker %d: sampled %q rejected", w, s)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
