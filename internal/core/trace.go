package core

import (
	"time"

	"glade/internal/telemetry"
)

// spanMark snapshots the learner's effort counters at a span boundary, so
// endSpan can attribute per-phase deltas without per-phase bookkeeping
// inside the scans.
type spanMark struct {
	at    time.Time
	stats Stats
}

// markSpan opens a phase span. Spans are kept contiguous by starting each
// one at the previous span's end (l.spanClock) rather than at time.Now():
// the few instructions between two phases are attributed to the later
// phase, and the summed span wall time equals the run's wall time exactly.
func (l *learner) markSpan() spanMark {
	if l.opts.Tracer == nil {
		return spanMark{}
	}
	at := l.spanClock
	if at.IsZero() {
		at = time.Now()
	}
	return spanMark{at: at, stats: l.stats}
}

// endSpan closes a phase span opened by markSpan and emits it through
// Options.Tracer with the phase's counter deltas as attributes.
func (l *learner) endSpan(name string, seed int, m spanMark) {
	if l.opts.Tracer == nil {
		return
	}
	end := time.Now()
	l.spanClock = end
	attrs := make(map[string]float64)
	set := func(k string, v float64) {
		if v != 0 {
			attrs[k] = v
		}
	}
	set("checks", float64(l.stats.Checks-m.stats.Checks))
	set("discarded", float64(l.stats.DiscardedChecks-m.stats.DiscardedChecks))
	set("candidates", float64(l.stats.Candidates-m.stats.Candidates))
	set("chargen_checks", float64(l.stats.CharGenChecks-m.stats.CharGenChecks))
	set("merge_pairs", float64(l.stats.MergePairs-m.stats.MergePairs))
	set("merged", float64(l.stats.Merged-m.stats.Merged))
	set("waves", float64(l.stats.Waves-m.stats.Waves))
	dq := l.stats.OracleQueries - m.stats.OracleQueries
	dh := l.stats.CacheHits - m.stats.CacheHits
	set("queries", float64(dq))
	set("cache_hits", float64(dh))
	if dq+dh > 0 {
		// Speculation hit-rate: the fraction of this phase's checks
		// answered from the memo (prefetched by an earlier wave or asked
		// before).
		set("speculation_hit_rate", float64(dh)/float64(dq+dh))
	}
	if len(attrs) == 0 {
		attrs = nil
	}
	l.opts.Tracer.Emit(telemetry.Span{
		Name:       name,
		Seed:       seed,
		Start:      m.at,
		DurationNS: end.Sub(m.at).Nanoseconds(),
		Attrs:      attrs,
	})
}
