package metrics

import (
	"context"
	"fmt"
	"sync"
	"time"

	"glade/internal/oracle"
	"glade/internal/telemetry"
)

// QueryStats is a snapshot of a QueryTimer: how many oracle queries ran,
// how long each took, and the aggregate throughput over the observed
// window: at Workers=N the per-query latency is unchanged while
// throughput scales.
// The JSON names are the wire format of glade-serve /v1/stats rows and of
// campaign checkpoint reports (durations marshal as nanoseconds).
type QueryStats struct {
	// Queries is the number of membership queries observed.
	Queries int `json:"queries"`
	// Batches is the number of bulk-path calls observed.
	Batches int `json:"batches"`
	// Busy is the cumulative query latency. For bulk calls the batch's
	// wall time is attributed once, so under concurrency Busy can be far
	// below Queries × mean single-query latency.
	Busy time.Duration `json:"busy_ns"`
	// MinLatency and MaxLatency bound observed per-query latency; bulk
	// calls contribute their per-item mean.
	MinLatency time.Duration `json:"min_latency_ns"`
	MaxLatency time.Duration `json:"max_latency_ns"`
	// Wall is the span from the first query's start to the last query's
	// completion.
	Wall time.Duration `json:"wall_ns"`
	// P50Latency, P95Latency, and P99Latency are per-query latency
	// quantiles estimated from a fixed-bucket histogram (see
	// internal/telemetry); bulk calls contribute their per-item mean, the
	// same convention as MinLatency/MaxLatency.
	P50Latency time.Duration `json:"p50_latency_ns"`
	P95Latency time.Duration `json:"p95_latency_ns"`
	P99Latency time.Duration `json:"p99_latency_ns"`
}

// MeanLatency is the average per-query latency.
func (s QueryStats) MeanLatency() time.Duration {
	if s.Queries == 0 {
		return 0
	}
	return s.Busy / time.Duration(s.Queries)
}

// Throughput is queries per second over the observed wall window. Very
// fast in-process batches can start and finish within the clock's
// resolution, leaving Wall (and even Busy) at zero; rather than reporting a
// nonsense 0 q/s for work that demonstrably ran, the denominator falls
// back from Wall to Busy to a one-nanosecond floor.
func (s QueryStats) Throughput() float64 {
	if s.Queries == 0 {
		return 0
	}
	window := s.Wall
	if window <= 0 {
		window = s.Busy
	}
	if window <= 0 {
		window = time.Nanosecond
	}
	return float64(s.Queries) / window.Seconds()
}

// String renders the snapshot for log lines.
func (s QueryStats) String() string {
	return fmt.Sprintf("%d queries in %v (mean %v, p99 %v, %.0f q/s)",
		s.Queries, s.Wall.Round(time.Millisecond), s.MeanLatency().Round(time.Microsecond),
		s.P99Latency.Round(time.Microsecond), s.Throughput())
}

// QueryTimer wraps an oracle and records per-query latency and throughput.
// It implements both the single and bulk paths of the CheckOracle contract
// and is safe for concurrent use, so it can sit anywhere in the oracle
// stack — below the worker pool it times individual program runs, above it
// it times whole waves. Queries that end in an oracle error are still
// timed: the wall clock they burned is real.
type QueryTimer struct {
	inner oracle.CheckOracle

	// hist bins every per-query latency so Snapshot can report
	// p50/p95/p99 alongside the mean; mirror, when non-nil, receives the
	// same observations so a shared telemetry registry (e.g. glade-serve's
	// /metrics) sees them too.
	hist   *telemetry.Histogram
	mirror *telemetry.Histogram

	mu       sync.Mutex
	stats    QueryStats
	started  bool
	firstAt  time.Time
	lastDone time.Time
}

// NewQueryTimer wraps inner with query timing. When mirror is non-nil,
// every per-query observation is also recorded on it: that is how a
// registry-owned histogram (one per query source) sees the queries without
// timing the oracle twice. Pass nil for no mirror.
func NewQueryTimer(inner oracle.CheckOracle, mirror *telemetry.Histogram) *QueryTimer {
	return &QueryTimer{inner: inner, hist: &telemetry.Histogram{}, mirror: mirror}
}

// Check implements oracle.CheckOracle.
func (q *QueryTimer) Check(ctx context.Context, input string) (oracle.Verdict, error) {
	start := time.Now()
	v, err := q.inner.Check(ctx, input)
	q.record(start, time.Now(), 1, false)
	return v, err
}

// CheckBatch implements oracle.BatchCheckOracle, forwarding to the inner
// oracle's bulk path when it has one.
func (q *QueryTimer) CheckBatch(ctx context.Context, inputs []string) ([]oracle.Verdict, error) {
	start := time.Now()
	out, err := oracle.CheckAll(ctx, q.inner, inputs, 1)
	q.record(start, time.Now(), len(inputs), true)
	return out, err
}

func (q *QueryTimer) record(start, end time.Time, n int, batch bool) {
	if n == 0 {
		return
	}
	elapsed := end.Sub(start)
	per := elapsed / time.Duration(n)
	// Histogram observations are atomic; keep them outside the mutex so
	// the hot path adds no lock hold time.
	q.hist.ObserveN(per, n)
	if q.mirror != nil {
		q.mirror.ObserveN(per, n)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.started || start.Before(q.firstAt) {
		q.firstAt = start
		q.started = true
	}
	if end.After(q.lastDone) {
		q.lastDone = end
	}
	s := &q.stats
	s.Queries += n
	if batch {
		s.Batches++
	}
	s.Busy += elapsed
	if s.MinLatency == 0 || per < s.MinLatency {
		s.MinLatency = per
	}
	if per > s.MaxLatency {
		s.MaxLatency = per
	}
}

// Snapshot returns the statistics recorded so far, including latency
// quantiles derived from the timer's histogram.
func (q *QueryTimer) Snapshot() QueryStats {
	q.mu.Lock()
	s := q.stats
	if q.started {
		s.Wall = q.lastDone.Sub(q.firstAt)
	}
	q.mu.Unlock()
	hs := q.hist.Snapshot()
	s.P50Latency = hs.Quantile(0.50)
	s.P95Latency = hs.Quantile(0.95)
	s.P99Latency = hs.Quantile(0.99)
	return s
}
