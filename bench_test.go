// Benchmarks regenerating every table and figure of the paper's evaluation
// at reduced scale (run `cmd/glade-bench` for paper-scale numbers). Each
// benchmark reports the experiment's headline metrics via b.ReportMetric so
// `go test -bench` output doubles as a summary of the reproduction:
//
//	go test -bench=. -benchmem
package glade

import (
	"context"
	"testing"
	"time"

	"glade/internal/bench"
)

func benchConfig() bench.Config {
	return bench.Config{
		Seeds:       10,
		EvalSamples: 200,
		FuzzSamples: 3000,
		Timeout:     60 * time.Second,
		RandSeed:    1,
	}
}

// BenchmarkFig4aF1 reproduces Figure 4(a): F1 of the four learners on the
// four target languages. Reported metrics are F1 scores scaled ×1000.
func BenchmarkFig4aF1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig4(context.Background(), benchConfig())
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.F1*1000, r.Target+"/"+r.Learner+"-mF1")
			}
		}
	}
}

// BenchmarkFig4bTime reproduces Figure 4(b): learner running time (ms).
func BenchmarkFig4bTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig4(context.Background(), benchConfig())
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Seconds*1000, r.Target+"/"+r.Learner+"-ms")
			}
		}
	}
}

// BenchmarkFig4cSeeds reproduces Figure 4(c): GLADE precision/recall on XML
// versus the number of seed inputs.
func BenchmarkFig4cSeeds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig4c(context.Background(), benchConfig(), []int{5, 15, 25})
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Precision*1000, sprintInt(r.Seeds)+"seeds-mP")
				b.ReportMetric(r.Recall*1000, sprintInt(r.Seeds)+"seeds-mR")
			}
		}
	}
}

// BenchmarkFig5Grammars reproduces Figure 5: synthesis from documentation
// seeds (reports grammar text length as a size proxy).
func BenchmarkFig5Grammars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.Fig5(context.Background(), benchConfig())
		if i == 0 {
			for name, g := range out {
				b.ReportMetric(float64(len(g)), name+"-gramlen")
			}
		}
	}
}

// BenchmarkFig6Synthesis reproduces the Figure 6 table: GLADE synthesis
// time and query count per program.
func BenchmarkFig6Synthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCache()
		rows, err := bench.Fig6(context.Background(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Seconds*1000, r.Program+"-ms")
				b.ReportMetric(float64(r.Queries), r.Program+"-queries")
			}
		}
	}
}

// BenchmarkFig7aCoverage reproduces Figure 7(a): valid normalized
// incremental coverage of the three fuzzers (×100, naive = 100).
func BenchmarkFig7aCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCache()
		rows, err := bench.Fig7a(context.Background(), benchConfig(), []string{"sed", "xml", "python"})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(r.Normalized*100, r.Program+"/"+r.Fuzzer+"-cov")
			}
		}
	}
}

// BenchmarkFig7bUpperBound reproduces Figure 7(b): the handwritten-grammar /
// test-suite proxy upper bounds.
func BenchmarkFig7bUpperBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCache()
		c := benchConfig()
		c.FuzzSamples = 1500
		rows, err := bench.Fig7b(context.Background(), c)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Fuzzer == "handwritten" || r.Fuzzer == "testsuite" {
					b.ReportMetric(r.Normalized*100, r.Program+"/"+r.Fuzzer+"-cov")
				}
			}
		}
	}
}

// BenchmarkFig7cCurve reproduces Figure 7(c): coverage over samples on the
// python program (final curve values ×100).
func BenchmarkFig7cCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCache()
		rows, err := bench.Fig7c(context.Background(), benchConfig(), 1000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Samples == 3000 {
					b.ReportMetric(r.Value*100, r.Fuzzer+"-final")
				}
			}
		}
	}
}

// BenchmarkFig8Sample reproduces Figure 8: drawing a valid structured
// sample from the synthesized XML grammar.
func BenchmarkFig8Sample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ResetCache()
		s, err := bench.Fig8(context.Background(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(s)), "sample-len")
		}
	}
}

// BenchmarkAblations runs the design-choice ablations DESIGN.md calls out:
// phase 2 off, char-gen off, member-check discarding off, reversed
// candidate ordering.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := benchConfig()
		c.Seeds = 6
		c.EvalSamples = 120
		rows := bench.Ablations(context.Background(), c)
		if i == 0 {
			for _, r := range rows {
				if r.Target == "xml" {
					b.ReportMetric(r.F1*1000, r.Variant+"-mF1")
					b.ReportMetric(float64(r.Queries), r.Variant+"-queries")
				}
			}
		}
	}
}

func sprintInt(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
