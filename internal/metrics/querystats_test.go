package metrics

import (
	"context"
	"sync"
	"testing"
	"time"

	"glade/internal/oracle"
	"glade/internal/telemetry"
)

func TestQueryTimerCounts(t *testing.T) {
	q := NewQueryTimer(oracle.Func(func(s string) bool {
		time.Sleep(time.Millisecond)
		return s == "yes"
	}), nil)
	ctx := context.Background()
	yes, err1 := q.Check(ctx, "yes")
	no, err2 := q.Check(ctx, "no")
	if yes != oracle.Accept || no != oracle.Reject || err1 != nil || err2 != nil {
		t.Fatal("timer altered oracle answers")
	}
	if _, err := q.CheckBatch(ctx, []string{"yes", "no", "yes"}); err != nil {
		t.Fatal(err)
	}
	s := q.Snapshot()
	if s.Queries != 5 {
		t.Fatalf("Queries = %d, want 5", s.Queries)
	}
	if s.Batches != 1 {
		t.Fatalf("Batches = %d, want 1", s.Batches)
	}
	if s.MeanLatency() < 500*time.Microsecond {
		t.Fatalf("MeanLatency = %v, want ≥ 0.5ms", s.MeanLatency())
	}
	if s.Wall <= 0 || s.Throughput() <= 0 {
		t.Fatalf("Wall/Throughput not recorded: %+v", s)
	}
	if s.MinLatency <= 0 || s.MaxLatency < s.MinLatency {
		t.Fatalf("latency bounds wrong: %+v", s)
	}
}

// TestQueryTimerThroughputScales is the property the parallel engine is
// built for: fanning a fixed-latency oracle across workers multiplies
// throughput without touching per-query latency.
func TestQueryTimerThroughputScales(t *testing.T) {
	const delay = 2 * time.Millisecond
	slow := oracle.Func(func(string) bool {
		time.Sleep(delay)
		return true
	})
	inputs := make([]string, 64)
	for i := range inputs {
		inputs[i] = string(rune('a' + i%26))
	}

	measure := func(workers int) QueryStats {
		q := NewQueryTimer(slow, nil)
		if _, err := oracle.Parallel(q, workers).CheckBatch(context.Background(), inputs); err != nil {
			t.Fatal(err)
		}
		return q.Snapshot()
	}
	seq := measure(1)
	par := measure(8)
	if par.Queries != seq.Queries {
		t.Fatalf("query counts differ: %d vs %d", par.Queries, seq.Queries)
	}
	// 8 workers on a sleep-bound oracle: conservatively demand 2×.
	if par.Throughput() < 2*seq.Throughput() {
		t.Fatalf("throughput did not scale: seq %.0f q/s, par %.0f q/s",
			seq.Throughput(), par.Throughput())
	}
}

// Regression: a batch so fast that start and end land on the same clock
// tick used to report throughput as 0 q/s. The guard falls back from Wall
// to Busy to a 1ns floor, so any completed query reports finite, nonzero
// throughput.
func TestQueryTimerSubMicrosecondBatchThroughput(t *testing.T) {
	q := NewQueryTimer(oracle.Func(func(string) bool { return true }), nil)
	now := time.Now()
	// Simulate an in-process batch whose wall time is below the clock's
	// resolution: identical start and end timestamps.
	q.record(now, now, 64, true)
	s := q.Snapshot()
	if s.Wall != 0 {
		t.Fatalf("Wall = %v, want 0 for a zero-elapsed batch", s.Wall)
	}
	if got := s.Throughput(); got <= 0 {
		t.Fatalf("Throughput = %v for 64 completed queries, want > 0", got)
	}
	// And with no queries at all, throughput must still read zero.
	if got := (QueryStats{}).Throughput(); got != 0 {
		t.Fatalf("empty Throughput = %v, want 0", got)
	}
}

// The timer's histogram feeds p50/p95/p99 into every snapshot and mirrors
// observations into an externally supplied histogram.
func TestQueryTimerQuantilesAndMirror(t *testing.T) {
	var mirror telemetry.Histogram
	q := NewQueryTimer(oracle.Func(func(string) bool { return true }), &mirror)
	base := time.Now()
	for i := 0; i < 99; i++ {
		q.record(base, base.Add(time.Millisecond), 1, false)
	}
	q.record(base, base.Add(time.Second), 1, false)
	s := q.Snapshot()
	if s.P50Latency < 500*time.Microsecond || s.P50Latency > 2500*time.Microsecond {
		t.Errorf("P50 = %v, want ~1ms", s.P50Latency)
	}
	if s.P99Latency < s.P50Latency {
		t.Errorf("P99 %v < P50 %v", s.P99Latency, s.P50Latency)
	}
	if s.P95Latency < s.P50Latency || s.P95Latency > s.P99Latency {
		t.Errorf("P95 = %v outside [P50=%v, P99=%v]", s.P95Latency, s.P50Latency, s.P99Latency)
	}
	if ms := mirror.Snapshot(); ms.Count != 100 {
		t.Errorf("mirror saw %d observations, want 100", ms.Count)
	}
	if s.Queries != 100 || s.MaxLatency != time.Second {
		t.Errorf("snapshot = %d queries, max %v; want 100, 1s", s.Queries, s.MaxLatency)
	}
}

func TestQueryTimerConcurrent(t *testing.T) {
	q := NewQueryTimer(oracle.Func(func(string) bool { return true }), nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q.Check(context.Background(), "x")
			}
		}()
	}
	wg.Wait()
	if s := q.Snapshot(); s.Queries != 800 {
		t.Fatalf("Queries = %d, want 800", s.Queries)
	}
}

// TestDispatchWrappersAllocateNothing pins the hot path of the wrappers a
// service job's queries pass through: one Check through a QueryTimer with
// a mirrored histogram, and one through the retry/breaker wrapper with no
// fault occurring, must not allocate.
func TestDispatchWrappersAllocateNothing(t *testing.T) {
	accept := oracle.CheckFunc(func(context.Context, string) (oracle.Verdict, error) {
		return oracle.Accept, nil
	})
	timer := NewQueryTimer(accept, &telemetry.Histogram{})
	resilient := oracle.NewResilient(accept, oracle.ResilientOptions{
		Retry:   oracle.RetryPolicy{MaxAttempts: 3},
		Breaker: oracle.BreakerPolicy{Threshold: 16},
	})
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		o    oracle.CheckOracle
	}{{"QueryTimer", timer}, {"Resilient", resilient}} {
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := tc.o.Check(ctx, "x"); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per Check, want 0", tc.name, allocs)
		}
	}
}
