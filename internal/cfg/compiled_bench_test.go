package cfg_test

// Microbenchmarks pitting the compiled engine against the map-based
// Parser/Sampler on grammars learned from the §8.3 sed and xml programs.
// All report allocations, so `go test -bench` makes allocation regressions
// on the membership and sampling hot paths, and in Compile, visible.
//
//	go test -bench 'Accepts|Sample|Compile' -benchmem ./internal/cfg/

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/oracle"
	"glade/internal/programs"
)

// benchGrammars caches one learned grammar (and a membership corpus) per
// program across all benchmarks in the package.
var benchGrammars sync.Map // name -> *benchGrammar

type benchGrammar struct {
	g      *cfg.Grammar
	corpus []string
	err    error
}

func learnedBenchGrammar(tb testing.TB, name string) *benchGrammar {
	if v, ok := benchGrammars.Load(name); ok {
		bg := v.(*benchGrammar)
		if bg.err != nil {
			tb.Fatal(bg.err)
		}
		return bg
	}
	p := programs.ByName(name)
	opts := core.DefaultOptions()
	opts.Timeout = 60 * time.Second
	opts.Workers = 4
	res, err := core.Learn(context.Background(), p.Seeds(), oracle.Func(func(s string) bool { return p.Run(s).OK }), opts)
	bg := &benchGrammar{err: err}
	if err == nil {
		bg.g = res.Grammar
		bg.corpus = corpusFor(res.Grammar, p.Seeds())
	}
	benchGrammars.Store(name, bg)
	if bg.err != nil {
		tb.Fatal(bg.err)
	}
	return bg
}

func benchPrograms(b *testing.B, f func(b *testing.B, bg *benchGrammar)) {
	for _, name := range []string{"sed", "xml"} {
		name := name
		b.Run(name, func(b *testing.B) {
			bg := learnedBenchGrammar(b, name)
			f(b, bg)
		})
	}
}

// BenchmarkAccepts measures single-input membership: the map-based Earley
// Parser versus the compiled recognizer, round-robin over the corpus.
func BenchmarkAccepts(b *testing.B) {
	benchPrograms(b, func(b *testing.B, bg *benchGrammar) {
		var bytes int
		for _, s := range bg.corpus {
			bytes += len(s)
		}
		b.Run("parser", func(b *testing.B) {
			parser := cfg.NewParser(bg.g)
			b.ReportAllocs()
			b.SetBytes(int64(bytes) / int64(len(bg.corpus)))
			for i := 0; i < b.N; i++ {
				parser.Accepts(bg.corpus[i%len(bg.corpus)])
			}
		})
		b.Run("compiled", func(b *testing.B) {
			comp := cfg.Compile(bg.g)
			b.ReportAllocs()
			b.SetBytes(int64(bytes) / int64(len(bg.corpus)))
			for i := 0; i < b.N; i++ {
				comp.Accepts(bg.corpus[i%len(bg.corpus)])
			}
		})
	})
}

// BenchmarkAcceptsAll measures batch membership over the whole corpus at 1
// and 8 workers.
func BenchmarkAcceptsAll(b *testing.B) {
	benchPrograms(b, func(b *testing.B, bg *benchGrammar) {
		comp := cfg.Compile(bg.g)
		for _, workers := range []int{1, 8} {
			workers := workers
			name := map[int]string{1: "workers-1", 8: "workers-8"}[workers]
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					comp.AcceptsAll(bg.corpus, workers)
				}
			})
		}
	})
}

// BenchmarkSample measures string sampling: the pointer-walking Sampler
// versus the compiled sampler with pooled output buffers.
func BenchmarkSample(b *testing.B) {
	benchPrograms(b, func(b *testing.B, bg *benchGrammar) {
		b.Run("sampler", func(b *testing.B) {
			sm := cfg.NewSampler(bg.g, cfg.DefaultSampleDepth)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sm.Sample(rng)
			}
		})
		b.Run("compiled", func(b *testing.B) {
			comp := cfg.Compile(bg.g)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				comp.Sample(rng)
			}
		})
	})
}

// BenchmarkCompile measures Compile on the pinned golden sed and xml
// grammars: the set-up every campaign, fuzzer and served grammar pays
// before its first query, most of it the prefilter's subset construction.
func BenchmarkCompile(b *testing.B) {
	for _, name := range []string{"sed", "xml"} {
		b.Run(name, func(b *testing.B) {
			g := loadGolden(b, "golden_"+name+"_w1.grammar")
			b.ReportAllocs()
			for b.Loop() {
				cfg.Compile(g)
			}
		})
	}
}
