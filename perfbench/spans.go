package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"glade/internal/oracle"
	"glade/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around the program's public functions. Spans of one HTTP
// request share id (the request-id header); spans of one operation share
// op.
type span struct {
	Name  string `json:"name"`
	ID    string `json:"id,omitempty"`
	Node  int    `json:"node"`
	Op    int    `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// interval is a bare [start, end) child span; oracle queries are recorded
// this way because a learn issues tens of thousands of them.
type interval struct{ start, end int64 }

// tracer keeps every span in memory; write dumps them once the run is over,
// so tracing does no I/O while operations are timed.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	queries []interval
	op      int
	// merged is queries sorted and with overlaps merged, built on first
	// use once the traced pass is over.
	merged []interval
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// setOp tags spans recorded from now on with operation i.
func (t *tracer) setOp(i int) {
	t.mu.Lock()
	t.op = i
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	s.Op = t.op
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) addQuery(start, end int64) {
	t.mu.Lock()
	t.queries = append(t.queries, interval{start, end})
	t.mu.Unlock()
}

// covered returns how much of [lo, hi) the sorted, possibly overlapping
// intervals cover.
func covered(lo, hi int64, sorted []interval) int64 {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i].end > lo })
	var total int64
	cur := lo
	for ; i < len(sorted) && sorted[i].start < hi; i++ {
		s, e := max(sorted[i].start, cur), min(sorted[i].end, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// oracleBusy returns the wall time within [lo, hi) during which at least
// one oracle query was running. Call it only after the traced pass.
func (t *tracer) oracleBusy(lo, hi int64) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.merged == nil {
		qs := append([]interval(nil), t.queries...)
		sort.Slice(qs, func(i, j int) bool { return qs[i].start < qs[j].start })
		t.merged = []interval{}
		for _, q := range qs {
			if n := len(t.merged); n > 0 && q.start <= t.merged[n-1].end {
				t.merged[n-1].end = max(t.merged[n-1].end, q.end)
				continue
			}
			t.merged = append(t.merged, q)
		}
	}
	return time.Duration(covered(lo, hi, t.merged))
}

// queryTime sums the duration of every recorded query (not merged: with
// concurrent queries this exceeds wall time).
func (t *tracer) queryTime() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, q := range t.queries {
		d += q.end - q.start
	}
	return time.Duration(d)
}

// write dumps the spans as NDJSON under dir, plus one summary line for
// the folded oracle queries.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	summary := map[string]any{"name": "oracle.queries", "count": len(t.queries)}
	t.mu.Unlock()
	if err := enc.Encode(summary); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedOracle times every Check into the tracer: the oracle layer's spans.
type tracedOracle struct {
	inner oracle.CheckOracle
	t     *tracer
}

func (o tracedOracle) Check(ctx context.Context, input string) (oracle.Verdict, error) {
	start := o.t.now()
	v, err := o.inner.Check(ctx, input)
	o.t.addQuery(start, o.t.now())
	return v, err
}

// phaseTracer adapts the learner's phase spans (core.Options.Tracer) into
// the tracer's span list.
func (t *tracer) phaseTracer() telemetry.Tracer {
	return telemetry.TracerFunc(func(s telemetry.Span) {
		start := int64(s.Start.Sub(t.epoch))
		t.add(span{Name: "core." + s.Name, Start: start, End: start + s.DurationNS})
	})
}

// requestIDHeader ties the spans of one HTTP request together across the
// proxy hop; the cluster router clones request headers when it forwards.
const requestIDHeader = "X-Perfbench-Request"

// traceSwitch is the attachment point for HTTP middleware installed at
// setup: spans are recorded only while a traced pass has a tracer attached.
type traceSwitch struct{ t atomic.Pointer[tracer] }

// layer wraps h so that every request it serves while a tracer is attached
// is recorded as a span named name on node, tagged with the request id.
func (sw *traceSwitch) layer(name string, node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := sw.t.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Name: name, ID: r.Header.Get(requestIDHeader), Node: node, Start: start, End: t.now()})
	})
}

// traceFile names a run's span dump.
func traceFile(rc runConfig) string {
	return fmt.Sprintf("%s-seed%d.ndjson", rc.workload, rc.seed)
}
