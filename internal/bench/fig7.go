package bench

import (
	"context"
	"math/rand"
	"strings"
	"time"

	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/fuzz"
	"glade/internal/oracle"
	"glade/internal/programs"
	"glade/internal/targets"
)

// ProgramRow is one line of the Figure 6 table.
type ProgramRow struct {
	Program string
	// Points is the number of coverage points discovered (the stand-in for
	// the paper's "lines of code" column).
	Points int
	// SeedLines is the total line count of the bundled seed inputs.
	SeedLines int
	// Seconds is GLADE's synthesis time.
	Seconds float64
	// Queries is the number of de-duplicated oracle queries issued.
	Queries int
	// GrammarSize is the size of the synthesized grammar.
	GrammarSize int
}

// learnedGrammars caches per-program synthesis results so Figures 6, 7 and
// 8 share one learning run (as the paper's pipeline does).
var learnedGrammars = map[string]*core.Result{}

// LearnProgram synthesizes (and caches) a grammar for the named program
// from its bundled seeds. workers bounds concurrent oracle queries (see
// core.Options.Workers); the synthesized grammar is identical at any value.
func LearnProgram(ctx context.Context, p programs.Program, timeout time.Duration, workers int) (*core.Result, error) {
	if res, ok := learnedGrammars[p.Name()]; ok {
		return res, nil
	}
	opts := core.DefaultOptions()
	opts.Timeout = timeout
	opts.Workers = workers
	o := oracle.Func(func(s string) bool { return p.Run(s).OK })
	res, err := core.Learn(ctx, p.Seeds(), o, opts)
	if err != nil {
		return nil, err
	}
	learnedGrammars[p.Name()] = res
	return res, nil
}

// ResetCache clears the learned-grammar cache (used by tests).
func ResetCache() { learnedGrammars = map[string]*core.Result{} }

// Fig6 reproduces the Figure 6 table: program size proxy, seed size, and
// GLADE synthesis time for each of the eight programs.
func Fig6(ctx context.Context, c Config) ([]ProgramRow, error) {
	c = c.withDefaults()
	var rows []ProgramRow
	for _, p := range programs.All() {
		res, err := LearnProgram(ctx, p, c.Timeout, c.Workers)
		if err != nil {
			return nil, err
		}
		lines := 0
		for _, s := range p.Seeds() {
			lines += 1 + strings.Count(strings.TrimRight(s, "\n"), "\n")
		}
		rows = append(rows, ProgramRow{
			Program:     p.Name(),
			Points:      p.NumPoints(),
			SeedLines:   lines,
			Seconds:     res.Stats.Duration.Seconds(),
			Queries:     res.Stats.OracleQueries,
			GrammarSize: res.Grammar.Size(),
		})
	}
	return rows, nil
}

// CoverageRow is one bar of Figure 7(a)/(b): a (program, fuzzer) pair with
// the valid normalized incremental coverage (naive = 1.0).
type CoverageRow struct {
	Program    string
	Fuzzer     string
	Valid      int
	IncrCover  int
	Normalized float64
}

// Fig7a reproduces Figure 7(a): valid normalized incremental coverage of
// the naive fuzzer (1.0 by construction), the afl-style fuzzer, and the
// GLADE grammar fuzzer on all eight programs.
func Fig7a(ctx context.Context, c Config, names []string) ([]CoverageRow, error) {
	c = c.withDefaults()
	if len(names) == 0 {
		for _, p := range programs.All() {
			names = append(names, p.Name())
		}
	}
	var rows []CoverageRow
	for _, name := range names {
		p := programs.ByName(name)
		res, err := LearnProgram(ctx, p, c.Timeout, c.Workers)
		if err != nil {
			return nil, err
		}
		seeds := p.Seeds()
		runs := []fuzz.CoverageRun{
			fuzz.RunCoverage(p, fuzz.NewNaive(seeds, nil), c.FuzzSamples, rand.New(rand.NewSource(c.RandSeed)), 0),
			fuzz.RunCoverage(p, fuzz.NewAFL(seeds), c.FuzzSamples, rand.New(rand.NewSource(c.RandSeed)), 0),
			fuzz.RunCoverage(p, fuzz.NewGrammar(res.Grammar, seeds), c.FuzzSamples, rand.New(rand.NewSource(c.RandSeed)), 0),
		}
		base := runs[0]
		for _, r := range runs {
			rows = append(rows, CoverageRow{
				Program:    p.Name(),
				Fuzzer:     r.Fuzzer,
				Valid:      r.Valid,
				IncrCover:  r.IncrCover,
				Normalized: r.Normalized(base),
			})
		}
	}
	return rows, nil
}

// Fig7b reproduces Figure 7(b): the same metric with a proxy for the upper
// bound — a handwritten grammar for grep and xml, and a bundled "test
// suite" corpus for python, ruby, and javascript.
func Fig7b(ctx context.Context, c Config) ([]CoverageRow, error) {
	c = c.withDefaults()
	names := []string{"grep", "xml", "ruby", "python", "javascript"}
	rows, err := Fig7a(ctx, c, names)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		p := programs.ByName(name)
		base := baselineRun(c, p)
		upper := upperBoundRun(c, p)
		rows = append(rows, CoverageRow{
			Program:    name,
			Fuzzer:     upper.Fuzzer,
			Valid:      upper.Valid,
			IncrCover:  upper.IncrCover,
			Normalized: upper.Normalized(base),
		})
	}
	return rows, nil
}

func baselineRun(c Config, p programs.Program) fuzz.CoverageRun {
	return fuzz.RunCoverage(p, fuzz.NewNaive(p.Seeds(), nil), c.FuzzSamples,
		rand.New(rand.NewSource(c.RandSeed)), 0)
}

// upperBoundRun plays the paper's proxy upper bound: fuzz with a
// handwritten grammar (grep, xml) or replay a large test-suite corpus
// (python, ruby, javascript).
func upperBoundRun(c Config, p programs.Program) fuzz.CoverageRun {
	switch p.Name() {
	case "grep":
		return handwrittenRun(c, p, targets.Grep().Grammar, targets.Grep().DocSeeds)
	case "xml":
		return handwrittenRun(c, p, targets.XML().Grammar, targets.XML().DocSeeds)
	default:
		return suiteRun(c, p, TestSuite(p.Name()))
	}
}

func handwrittenRun(c Config, p programs.Program, g *cfg.Grammar, seeds []string) fuzz.CoverageRun {
	f := fuzz.NewGrammar(g, seeds)
	run := fuzz.RunCoverage(p, f, c.FuzzSamples, rand.New(rand.NewSource(c.RandSeed)), 0)
	run.Fuzzer = "handwritten"
	return run
}

// suiteRun measures coverage of a fixed corpus (no fuzzing), normalized
// like the other runs.
func suiteRun(c Config, p programs.Program, corpus []string) fuzz.CoverageRun {
	run := fuzz.CoverageRun{Fuzzer: "testsuite", Program: p.Name(), Samples: len(corpus)}
	seedPoints := map[int]bool{}
	for _, s := range p.Seeds() {
		for _, pt := range p.Run(s).Points {
			seedPoints[pt] = true
		}
	}
	run.SeedCover = len(seedPoints)
	incr := map[int]bool{}
	for _, s := range corpus {
		res := p.Run(s)
		if !res.OK {
			continue
		}
		run.Valid++
		for _, pt := range res.Points {
			if !seedPoints[pt] {
				incr[pt] = true
			}
		}
	}
	run.IncrCover = len(incr)
	return run
}

// Fig7c reproduces Figure 7(c): valid incremental coverage (normalized by
// the naive fuzzer's final coverage) as a function of sample count, on the
// python program, for all three fuzzers.
type CurveRow struct {
	Fuzzer  string
	Samples int
	Value   float64
}

// Fig7c runs the three fuzzers on python with periodic checkpoints.
func Fig7c(ctx context.Context, c Config, checkpointEvery int) ([]CurveRow, error) {
	c = c.withDefaults()
	if checkpointEvery <= 0 {
		checkpointEvery = c.FuzzSamples / 10
		if checkpointEvery == 0 {
			checkpointEvery = 1
		}
	}
	p := programs.ByName("python")
	res, err := LearnProgram(ctx, p, c.Timeout, c.Workers)
	if err != nil {
		return nil, err
	}
	seeds := p.Seeds()
	runs := []fuzz.CoverageRun{
		fuzz.RunCoverage(p, fuzz.NewNaive(seeds, nil), c.FuzzSamples, rand.New(rand.NewSource(c.RandSeed)), checkpointEvery),
		fuzz.RunCoverage(p, fuzz.NewAFL(seeds), c.FuzzSamples, rand.New(rand.NewSource(c.RandSeed)), checkpointEvery),
		fuzz.RunCoverage(p, fuzz.NewGrammar(res.Grammar, seeds), c.FuzzSamples, rand.New(rand.NewSource(c.RandSeed)), checkpointEvery),
	}
	norm := float64(runs[0].IncrCover)
	if norm == 0 {
		norm = 1
	}
	var rows []CurveRow
	for _, r := range runs {
		for _, cp := range r.Curve {
			rows = append(rows, CurveRow{Fuzzer: r.Fuzzer, Samples: cp.Samples, Value: float64(cp.IncrCover) / norm})
		}
	}
	return rows, nil
}

// Fig8 reproduces Figure 8: one valid sample from the grammar synthesized
// for the XML program.
func Fig8(ctx context.Context, c Config) (string, error) {
	c = c.withDefaults()
	p := programs.ByName("xml")
	res, err := LearnProgram(ctx, p, c.Timeout, c.Workers)
	if err != nil {
		return "", err
	}
	sm := cfg.Compile(res.Grammar)
	rng := rand.New(rand.NewSource(c.RandSeed))
	// Prefer a sample that the program actually accepts and that shows some
	// structure.
	best := ""
	for i := 0; i < 200; i++ {
		s := sm.Sample(rng)
		if p.Run(s).OK && len(s) > len(best) && len(s) < 400 {
			best = s
		}
	}
	return best, nil
}
