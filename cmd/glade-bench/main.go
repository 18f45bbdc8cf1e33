// Command glade-bench regenerates every table and figure of the paper's
// evaluation (§8): Figures 4–8 and the design-choice ablations. Each
// figure prints as a text table.
//
// Usage:
//
//	glade-bench [-fig 4a|4b|4c|5|6|7a|7b|7c|8|ablations|all] [flags]
//
// The default flags match the paper's scale (50 seeds, 1000 evaluation
// samples, 50,000 fuzzing samples, 300 s learner timeout); use -quick for a
// reduced run that finishes in well under a minute. An unknown -fig name
// prints the valid names and exits 2.
//
// -workers parallelizes the oracle queries of every figure's learning
// runs; their grammars and scores are identical either way, but the
// reported query counts grow with speculation, so the default stays
// sequential. Performance is measured by perfbench (perfbench/run.sh),
// not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"glade/internal/bench"
)

// figures lists every -fig name in the order -fig all runs them.
var figures = []struct {
	name string
	run  func(context.Context, bench.Config)
}{
	{"4a", fig4a},
	{"4b", fig4b},
	{"4c", fig4c},
	{"5", fig5},
	{"6", fig6},
	{"7a", fig7a},
	{"7b", fig7b},
	{"7c", fig7c},
	{"8", fig8},
	{"ablations", ablations},
}

func main() {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	names = append(names, "all")
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(names, " "))
	seeds := flag.Int("seeds", 50, "seed inputs per target (Figure 4)")
	eval := flag.Int("eval", 1000, "samples per precision/recall estimate")
	fuzzN := flag.Int("samples", 50000, "samples per fuzzer (Figure 7)")
	timeout := flag.Duration("timeout", 300*time.Second, "per-learner timeout")
	quick := flag.Bool("quick", false, "reduced-scale run (seeds=10 eval=200 samples=4000)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "concurrent oracle queries (0 or 1 = sequential). Sequential by default so the query-count columns match the paper's cost model — speculative prefetching issues extra queries")
	jsonOut := flag.String("json", "", "also write machine-readable results (program, queries, wall-clock, workers) to this file")
	flag.Parse()
	if !slices.Contains(names, *fig) {
		fmt.Fprintf(os.Stderr, "glade-bench: unknown -fig %q; valid: %s\n", *fig, strings.Join(names, " "))
		os.Exit(2)
	}
	if *jsonOut != "" {
		report = &jsonReport{Results: []jsonRow{}}
	}

	c := bench.Config{Seeds: *seeds, EvalSamples: *eval, FuzzSamples: *fuzzN, Timeout: *timeout, RandSeed: *seed, Workers: *workers}
	if *quick {
		c.Seeds, c.EvalSamples, c.FuzzSamples = 10, 200, 4000
	}

	// SIGINT/SIGTERM cancel the remaining learning runs; figures already
	// computed still print.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, f := range figures {
		if *fig == f.name || *fig == "all" {
			f.run(ctx, c)
		}
	}
	if *jsonOut != "" {
		writeReport(*jsonOut, c)
	}
}

var fig4Cache []bench.LearnerRow

func fig4Rows(ctx context.Context, c bench.Config) []bench.LearnerRow {
	if fig4Cache == nil {
		fig4Cache = bench.Fig4(ctx, c)
		recordFig4(fig4Cache)
	}
	return fig4Cache
}

func fig4a(ctx context.Context, c bench.Config) {
	fmt.Println("== Figure 4(a): F1 score per target and learner ==")
	fmt.Printf("%-6s %-9s %6s %6s %6s\n", "target", "learner", "P", "R", "F1")
	for _, r := range fig4Rows(ctx, c) {
		fmt.Printf("%-6s %-9s %6.3f %6.3f %6.3f\n", r.Target, r.Learner, r.Precision, r.Recall, r.F1)
	}
	fmt.Println()
}

func fig4b(ctx context.Context, c bench.Config) {
	fmt.Println("== Figure 4(b): running time (seconds) ==")
	fmt.Printf("%-6s %-9s %8s %s\n", "target", "learner", "time", "timeout")
	for _, r := range fig4Rows(ctx, c) {
		fmt.Printf("%-6s %-9s %8.2f %v\n", r.Target, r.Learner, r.Seconds, r.TimedOut)
	}
	fmt.Println()
}

func fig4c(ctx context.Context, c bench.Config) {
	fmt.Println("== Figure 4(c): GLADE on XML vs number of seed inputs ==")
	fmt.Printf("%6s %9s %7s %8s\n", "seeds", "precision", "recall", "time(s)")
	for _, r := range bench.Fig4c(ctx, c, nil) {
		fmt.Printf("%6d %9.3f %7.3f %8.2f\n", r.Seeds, r.Precision, r.Recall, r.Seconds)
	}
	fmt.Println()
}

func fig5(ctx context.Context, c bench.Config) {
	fmt.Println("== Figure 5: synthesized grammars from documentation seeds ==")
	out := bench.Fig5(ctx, c)
	for _, name := range []string{"url", "grep", "lisp", "xml"} {
		fmt.Printf("--- %s ---\n%s\n", name, out[name])
	}
}

func fig6(ctx context.Context, c bench.Config) {
	fmt.Println("== Figure 6: programs, seeds, and synthesis time ==")
	rows, err := bench.Fig6(ctx, c)
	fail(err)
	recordFig6(rows)
	fmt.Printf("%-11s %8s %10s %9s %9s %8s\n", "program", "points", "seed-lines", "time(s)", "queries", "gsize")
	for _, r := range rows {
		fmt.Printf("%-11s %8d %10d %9.2f %9d %8d\n", r.Program, r.Points, r.SeedLines, r.Seconds, r.Queries, r.GrammarSize)
	}
	fmt.Println()
}

func fig7a(ctx context.Context, c bench.Config) {
	fmt.Println("== Figure 7(a): valid normalized incremental coverage ==")
	rows, err := bench.Fig7a(ctx, c, nil)
	fail(err)
	printCoverage(rows)
}

func fig7b(ctx context.Context, c bench.Config) {
	fmt.Println("== Figure 7(b): versus proxy upper bound ==")
	rows, err := bench.Fig7b(ctx, c)
	fail(err)
	printCoverage(rows)
}

func printCoverage(rows []bench.CoverageRow) {
	fmt.Printf("%-11s %-12s %7s %6s %10s\n", "program", "fuzzer", "valid", "incr", "normalized")
	for _, r := range rows {
		fmt.Printf("%-11s %-12s %7d %6d %10.2f\n", r.Program, r.Fuzzer, r.Valid, r.IncrCover, r.Normalized)
	}
	fmt.Println()
}

func fig7c(ctx context.Context, c bench.Config) {
	fmt.Println("== Figure 7(c): coverage over samples (python) ==")
	rows, err := bench.Fig7c(ctx, c, 0)
	fail(err)
	fmt.Printf("%-8s %9s %7s\n", "fuzzer", "samples", "value")
	for _, r := range rows {
		fmt.Printf("%-8s %9d %7.2f\n", r.Fuzzer, r.Samples, r.Value)
	}
	fmt.Println()
}

func fig8(ctx context.Context, c bench.Config) {
	fmt.Println("== Figure 8: a valid sample from the synthesized XML grammar ==")
	s, err := bench.Fig8(ctx, c)
	fail(err)
	fmt.Printf("%q\n\n", s)
}

func ablations(ctx context.Context, c bench.Config) {
	fmt.Println("== Ablations: design-choice variants ==")
	fmt.Printf("%-6s %-17s %6s %6s %6s %9s %8s\n", "target", "variant", "P", "R", "F1", "queries", "time(s)")
	ablationRows := bench.Ablations(ctx, c)
	recordAblations(ablationRows)
	for _, r := range ablationRows {
		fmt.Printf("%-6s %-17s %6.3f %6.3f %6.3f %9d %8.2f\n",
			r.Target, r.Variant, r.Precision, r.Recall, r.F1, r.Queries, r.Seconds)
	}
	fmt.Println()
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "glade-bench:", err)
		os.Exit(1)
	}
}
