package core

import (
	"context"
	"testing"
	"time"

	"glade/internal/oracle"
	"glade/internal/telemetry"
)

// The Options.Tracer contract: one span per phase — seeds, then
// phase1/chargen per generalized seed, phase2, finalize — contiguous and
// non-overlapping, with the summed span wall time equal to the span
// window. This is what makes `glade -trace` NDJSON a faithful account of
// where a learn job's wall time went.
func TestLearnPhaseSpans(t *testing.T) {
	var rec telemetry.SpanRecorder
	opts := DefaultOptions()
	opts.Workers = 4
	opts.Tracer = &rec

	started := time.Now()
	res, err := Learn(context.Background(), []string{"<a>hi</a>", "xyz<a>q</a>"},
		oracle.Func(figure1XML), opts)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	total := time.Since(started)

	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans emitted")
	}

	// Every expected phase appears: both seeds generalize (neither is in
	// the other's language), so phase1 and chargen fire per seed.
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
	}
	if count["seeds"] != 1 || count["phase2"] != 1 || count["finalize"] != 1 {
		t.Errorf("span counts = %v, want one each of seeds/phase2/finalize", count)
	}
	if count["phase1"] != 2 || count["chargen"] != 2 {
		t.Errorf("span counts = %v, want two each of phase1/chargen", count)
	}

	// Spans are emitted in order, tile the window without overlap, and
	// their durations sum to exactly the window they cover.
	var sum time.Duration
	for i, s := range spans {
		if s.Duration() < 0 {
			t.Errorf("span %d (%s) has negative duration %v", i, s.Name, s.Duration())
		}
		if i > 0 {
			prev := spans[i-1]
			if s.Start.Before(prev.End()) {
				t.Errorf("span %d (%s) starts %v before span %d (%s) ends %v",
					i, s.Name, s.Start, i-1, prev.Name, prev.End())
			}
			if !s.Start.Equal(prev.End()) {
				t.Errorf("span %d (%s) not contiguous with previous: gap %v",
					i, s.Name, s.Start.Sub(prev.End()))
			}
		}
		sum += s.Duration()
	}
	window := spans[len(spans)-1].End().Sub(spans[0].Start)
	if sum != window {
		t.Errorf("summed span time %v != span window %v", sum, window)
	}
	// The window is the bulk of Learn's wall time (only option parsing and
	// stats assembly fall outside it).
	if sum > total {
		t.Errorf("summed span time %v exceeds measured wall time %v", sum, total)
	}

	// Per-seed phases carry the seed index; run-wide phases carry -1.
	for _, s := range spans {
		switch s.Name {
		case "phase1", "chargen":
			if s.Seed < 0 || s.Seed > 1 {
				t.Errorf("%s span has seed %d, want 0 or 1", s.Name, s.Seed)
			}
		default:
			if s.Seed != -1 {
				t.Errorf("%s span has seed %d, want -1", s.Name, s.Seed)
			}
		}
	}

	// Attribute deltas must reconcile with the run's aggregate stats.
	var queries, waves, discarded float64
	for _, s := range spans {
		queries += s.Attrs["queries"]
		waves += s.Attrs["waves"]
		discarded += s.Attrs["discarded"]
	}
	if int(queries) != res.Stats.OracleQueries {
		t.Errorf("span queries sum to %v, stats report %d", queries, res.Stats.OracleQueries)
	}
	if int(discarded) != res.Stats.DiscardedChecks || res.Stats.DiscardedChecks == 0 {
		t.Errorf("span discards sum to %v, stats report %d (want nonzero)", discarded, res.Stats.DiscardedChecks)
	}
	if int(waves) != res.Stats.Waves || res.Stats.Waves == 0 {
		t.Errorf("span waves sum to %v, stats report %d (want nonzero at Workers=4)", waves, res.Stats.Waves)
	}
}

// Without a tracer, Learn must emit nothing and behave identically.
func TestLearnNoTracer(t *testing.T) {
	opts := DefaultOptions()
	res, err := Learn(context.Background(), []string{"<a>x</a>"}, oracle.Func(figure1XML), opts)
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if res.Stats.Waves != 0 {
		t.Errorf("sequential run issued %d waves, want 0", res.Stats.Waves)
	}
}
