package bench

import (
	"context"
	"math/rand"
	"time"

	"glade/internal/core"
	"glade/internal/metrics"
	"glade/internal/targets"
)

// AblationRow reports one learner variant on one target.
type AblationRow struct {
	Target    string
	Variant   string
	Precision float64
	Recall    float64
	F1        float64
	Queries   int
	Seconds   float64
}

// AblationVariants are the design choices DESIGN.md calls out, each mapped
// to an Options mutation.
var AblationVariants = []struct {
	Name  string
	Apply func(*core.Options)
}{
	{"full", func(*core.Options) {}},
	{"no-phase2", func(o *core.Options) { o.Phase2 = false }},
	{"no-chargen", func(o *core.Options) { o.CharGen = false }},
	{"no-discard", func(o *core.Options) { o.DiscardMemberChecks = false }},
	{"reverse-ordering", func(o *core.Options) { o.ReverseOrdering = true }},
}

// Ablations runs every variant on every target with the configured seed
// budget, reporting quality and query cost. ctx cancels the remaining
// learning runs.
func Ablations(ctx context.Context, c Config) []AblationRow {
	c = c.withDefaults()
	var rows []AblationRow
	for _, tgt := range targets.All() {
		rng := rand.New(rand.NewSource(c.RandSeed))
		seeds := tgt.SampleSeeds(rng, c.Seeds)
		for _, v := range AblationVariants {
			opts := core.DefaultOptions()
			opts.Timeout = c.Timeout
			v.Apply(&opts)
			start := time.Now()
			res, err := core.Learn(ctx, seeds, tgt.Oracle, opts)
			if err != nil {
				continue
			}
			e := metrics.Evaluate(metrics.NewGrammarLang(res.Grammar, 28), targetLang(tgt),
				c.EvalSamples, rand.New(rand.NewSource(c.RandSeed+99)))
			rows = append(rows, AblationRow{
				Target:    tgt.Name,
				Variant:   v.Name,
				Precision: e.Precision,
				Recall:    e.Recall,
				F1:        e.F1(),
				Queries:   res.Stats.OracleQueries,
				Seconds:   time.Since(start).Seconds(),
			})
		}
	}
	return rows
}
