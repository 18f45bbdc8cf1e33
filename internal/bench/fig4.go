// Package bench is the experiment harness regenerating every table and
// figure of the paper's evaluation (§8). It is shared between cmd/glade-bench
// (full-size runs) and the root bench_test.go (reduced-size runs).
package bench

import (
	"context"
	"math/rand"
	"time"

	"glade/internal/core"
	"glade/internal/lstar"
	"glade/internal/metrics"
	"glade/internal/rpni"
	"glade/internal/targets"
)

// Config scales the experiments. Zero values select the paper's settings.
type Config struct {
	// Seeds is the number of sampled seed inputs per target (paper: 50).
	Seeds int
	// EvalSamples is the sample count per precision/recall estimate
	// (paper: 1000).
	EvalSamples int
	// Timeout bounds each learner run (paper: 300 s).
	Timeout time.Duration
	// FuzzSamples is the per-fuzzer sample budget in §8.3 (paper: 50000).
	FuzzSamples int
	// RandSeed makes runs reproducible.
	RandSeed int64
	// Workers bounds concurrent oracle queries during learning (see
	// core.Options.Workers). Zero or one learns sequentially, exactly as
	// the paper's algorithm; the synthesized grammars are identical either
	// way.
	Workers int
}

// withDefaults fills in the paper's parameters.
func (c Config) withDefaults() Config {
	if c.Seeds == 0 {
		c.Seeds = 50
	}
	if c.EvalSamples == 0 {
		c.EvalSamples = 1000
	}
	if c.Timeout == 0 {
		c.Timeout = 300 * time.Second
	}
	if c.FuzzSamples == 0 {
		c.FuzzSamples = 50000
	}
	if c.RandSeed == 0 {
		c.RandSeed = 1
	}
	return c
}

// LearnerRow is one bar of Figure 4(a)/(b): a (target, learner) pair.
type LearnerRow struct {
	Target    string
	Learner   string
	Precision float64
	Recall    float64
	F1        float64
	Seconds   float64
	TimedOut  bool
}

// Learners evaluated in Figure 4, in display order.
var Learners = []string{"lstar", "rpni", "glade-p1", "glade"}

// Fig4 reproduces Figures 4(a) and 4(b): F1 and running time of L-Star,
// RPNI, GLADE without phase two ("glade-p1"), and GLADE on the four targets.
func Fig4(ctx context.Context, c Config) []LearnerRow {
	c = c.withDefaults()
	var rows []LearnerRow
	for _, tgt := range targets.All() {
		rng := rand.New(rand.NewSource(c.RandSeed))
		seeds := tgt.SampleSeeds(rng, c.Seeds)
		for _, learner := range Learners {
			rows = append(rows, runLearner(ctx, c, tgt, learner, seeds))
		}
	}
	return rows
}

func runLearner(ctx context.Context, c Config, tgt *targets.Target, learner string, seeds []string) LearnerRow {
	row := LearnerRow{Target: tgt.Name, Learner: learner}
	truth := targetLang(tgt)
	start := time.Now()
	var learned metrics.Language
	switch learner {
	case "glade", "glade-p1":
		opts := core.DefaultOptions()
		opts.Phase2 = learner == "glade"
		opts.Timeout = c.Timeout
		opts.Workers = c.Workers
		res, err := core.Learn(ctx, seeds, tgt.Oracle, opts)
		if err != nil {
			return row
		}
		row.TimedOut = res.Stats.TimedOut
		learned = metrics.NewGrammarLang(res.Grammar, 28)
	case "lstar":
		// The paper's setup (§8.2): "the equivalence oracle is implemented
		// by randomly sampling strings to search for counter-examples; we
		// accept R̂ if none are found after 50 samples". Random strings over
		// a structured language are almost never valid, so the oracle
		// rarely supplies the positive counterexamples L-Star needs — the
		// failure mode the paper reports.
		alphabet := tgt.Grammar.Terminals().Bytes()
		d, stats := lstar.Learn(lstar.Teacher{
			Oracle:       tgt.Oracle,
			Alphabet:     alphabet,
			EquivSamples: 50,
			MaxSampleLen: 40,
			Timeout:      c.Timeout,
			Rng:          rand.New(rand.NewSource(c.RandSeed + 7)),
		})
		row.TimedOut = stats.TimedOut
		learned = &metrics.DFALang{D: d, MaxLen: 60}
	case "rpni":
		// §8.2: negatives are 50 random strings not in L*.
		alphabet := tgt.Grammar.Terminals().Bytes()
		negatives := sampleNegatives(tgt, alphabet, 50, rand.New(rand.NewSource(c.RandSeed+13)))
		d, stats := rpni.Learn(seeds, negatives, alphabet, c.Timeout)
		row.TimedOut = stats.TimedOut
		learned = &metrics.DFALang{D: d, MaxLen: 60}
	default:
		panic("bench: unknown learner " + learner)
	}
	row.Seconds = time.Since(start).Seconds()
	e := metrics.Evaluate(learned, truth, c.EvalSamples, rand.New(rand.NewSource(c.RandSeed+99)))
	row.Precision, row.Recall, row.F1 = e.Precision, e.Recall, e.F1()
	return row
}

func targetLang(tgt *targets.Target) metrics.Language {
	return &metrics.OracleLang{
		O: tgt.Oracle,
		S: func(r *rand.Rand) (string, bool) { return sampleTarget(tgt, r) },
	}
}

// targetLangs caches the ground-truth grammar samplers; they are immutable
// and expensive to rebuild per evaluation.
var targetLangs = map[string]*metrics.GrammarLang{}

func sampleTarget(tgt *targets.Target, rng *rand.Rand) (string, bool) {
	gl, ok := targetLangs[tgt.Name]
	if !ok {
		gl = metrics.NewGrammarLang(tgt.Grammar, 28)
		targetLangs[tgt.Name] = gl
	}
	return gl.Sample(rng)
}

// sampleNegatives draws n random strings over the alphabet rejected by the
// oracle, as §8.2 does for RPNI.
func sampleNegatives(tgt *targets.Target, alphabet []byte, n int, rng *rand.Rand) []string {
	var out []string
	for attempts := 0; len(out) < n && attempts < 100*n; attempts++ {
		l := rng.Intn(25)
		b := make([]byte, l)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		s := string(b)
		if !tgt.Oracle(s) {
			out = append(out, s)
		}
	}
	return out
}

// SeedSweepRow is one x-position of Figure 4(c).
type SeedSweepRow struct {
	Seeds     int
	Precision float64
	Recall    float64
	Seconds   float64
}

// Fig4c reproduces Figure 4(c): GLADE precision, recall, and running time
// on the XML target as the number of seed inputs grows.
func Fig4c(ctx context.Context, c Config, counts []int) []SeedSweepRow {
	c = c.withDefaults()
	if len(counts) == 0 {
		counts = []int{5, 15, 25, 35, 45}
	}
	tgt := targets.XML()
	rng := rand.New(rand.NewSource(c.RandSeed))
	all := tgt.SampleSeeds(rng, counts[len(counts)-1])
	var rows []SeedSweepRow
	for _, n := range counts {
		if n > len(all) {
			n = len(all)
		}
		opts := core.DefaultOptions()
		opts.Timeout = c.Timeout
		opts.Workers = c.Workers
		start := time.Now()
		res, err := core.Learn(ctx, all[:n], tgt.Oracle, opts)
		if err != nil {
			continue
		}
		secs := time.Since(start).Seconds()
		e := metrics.Evaluate(metrics.NewGrammarLang(res.Grammar, 28), targetLang(tgt),
			c.EvalSamples, rand.New(rand.NewSource(c.RandSeed+99)))
		rows = append(rows, SeedSweepRow{Seeds: n, Precision: e.Precision, Recall: e.Recall, Seconds: secs})
	}
	return rows
}

// Fig5 reproduces Figure 5: grammars synthesized from a few representative
// (documentation) seeds per target, rendered as text.
func Fig5(ctx context.Context, c Config) map[string]string {
	c = c.withDefaults()
	out := map[string]string{}
	for _, tgt := range targets.All() {
		opts := core.DefaultOptions()
		opts.Timeout = c.Timeout
		opts.Workers = c.Workers
		res, err := core.Learn(ctx, tgt.DocSeeds, tgt.Oracle, opts)
		if err != nil {
			out[tgt.Name] = "error: " + err.Error()
			continue
		}
		out[tgt.Name] = res.Grammar.Trim().String()
	}
	return out
}
