package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one completed phase of work: a name, a wall-clock interval, and a
// small bag of numeric attributes (oracle queries, candidates generated,
// speculation hit-rate, ...). Spans are emitted by core.Learn for each
// learner phase and serialized as one JSON object per line in NDJSON trace
// files.
type Span struct {
	// Name identifies the phase: "seeds", "phase1", "chargen", "phase2",
	// or "finalize".
	Name string `json:"name"`
	// Seed is the zero-based seed index for per-seed phases, -1 otherwise.
	Seed int `json:"seed"`
	// Start is the wall-clock time the phase began.
	Start time.Time `json:"start"`
	// DurationNS is the phase wall time in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Attrs holds phase counters: only keys with non-zero values are set.
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// End returns the wall-clock time the span finished.
func (s Span) End() time.Time { return s.Start.Add(time.Duration(s.DurationNS)) }

// Duration returns the span's wall time as a time.Duration.
func (s Span) Duration() time.Duration { return time.Duration(s.DurationNS) }

// Tracer receives completed spans. Implementations must be safe for
// concurrent use; core.Learn emits spans from the learner goroutine but a
// single Tracer may be shared across jobs.
type Tracer interface {
	// Emit records one completed span.
	Emit(Span)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(Span)

// Emit calls f(s).
func (f TracerFunc) Emit(s Span) { f(s) }

// NDJSONTracer writes each span as one JSON object per line. It serializes
// writes internally, so a single instance may back multiple jobs.
type NDJSONTracer struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewNDJSONTracer returns a tracer writing newline-delimited JSON spans to w.
func NewNDJSONTracer(w io.Writer) *NDJSONTracer {
	return &NDJSONTracer{enc: json.NewEncoder(w)}
}

// Emit writes the span as one NDJSON line. Encoding errors are dropped:
// tracing must never fail the traced work.
func (t *NDJSONTracer) Emit(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.enc.Encode(s)
}

// maxRecordedSpans bounds SpanRecorder growth; a learn job over dozens of
// seeds emits a few spans per seed, so the cap is far above normal use.
const maxRecordedSpans = 1024

// SpanRecorder accumulates spans in memory, for attaching phase timing to
// job records and API responses. It is safe for concurrent use and keeps at
// most maxRecordedSpans spans (later spans are counted but dropped).
type SpanRecorder struct {
	mu      sync.Mutex
	spans   []Span
	dropped int
}

// Emit appends the span to the recorder.
func (r *SpanRecorder) Emit(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxRecordedSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// Spans returns a copy of the recorded spans in emission order.
func (r *SpanRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// PhaseSummary aggregates the recorded spans by name: total wall time in
// nanoseconds per phase. It is the shape folded into /v1/stats.
func (r *SpanRecorder) PhaseSummary() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) == 0 {
		return nil
	}
	out := make(map[string]int64)
	for _, s := range r.spans {
		out[s.Name] += s.DurationNS
	}
	return out
}
