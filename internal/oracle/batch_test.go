package oracle

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// hasA is the reference predicate the conformance suite checks against.
func hasA(s string) bool { return strings.Contains(s, "a") }

// conformanceInputs mixes members, non-members, and duplicates.
var conformanceInputs = []string{
	"abc", "xyz", "", "a", "zzz", "abc", "banana", "xyz", "qqq", "a",
}

// testBatchConformance is the shared conformance suite of the batch-oracle
// contracts: the bulk path must agree with the single path elementwise, in
// input order, including duplicates and the empty batch, and must be safe
// to call concurrently with itself and with single queries.
func testBatchConformance(t *testing.T, name string, mk func() BatchCheckOracle) {
	ctx := context.Background()
	t.Run(name+"/agrees-with-check", func(t *testing.T) {
		o := mk()
		got, err := o.CheckBatch(ctx, conformanceInputs)
		if err != nil {
			t.Fatalf("CheckBatch: %v", err)
		}
		if len(got) != len(conformanceInputs) {
			t.Fatalf("CheckBatch returned %d results for %d inputs", len(got), len(conformanceInputs))
		}
		for i, in := range conformanceInputs {
			want := Reject
			if hasA(in) {
				want = Accept
			}
			if got[i] != want {
				t.Errorf("CheckBatch[%d] (%q) = %v, want %v", i, in, got[i], want)
			}
		}
		for i, in := range conformanceInputs {
			v, err := o.Check(ctx, in)
			if err != nil {
				t.Fatalf("Check(%q): %v", in, err)
			}
			if v != got[i] {
				t.Errorf("Check(%q) disagrees with CheckBatch[%d]", in, i)
			}
		}
	})
	t.Run(name+"/empty-batch", func(t *testing.T) {
		got, err := mk().CheckBatch(ctx, nil)
		if err != nil || len(got) != 0 {
			t.Fatalf("CheckBatch(nil) = %v, %v, want empty", got, err)
		}
	})
	t.Run(name+"/concurrent", func(t *testing.T) {
		o := mk()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				inputs := make([]string, 20)
				for i := range inputs {
					inputs[i] = fmt.Sprintf("in-%d-%d%s", g, i, strings.Repeat("a", i%2))
				}
				got, err := o.CheckBatch(ctx, inputs)
				if err != nil {
					t.Errorf("concurrent CheckBatch: %v", err)
					return
				}
				for i, in := range inputs {
					if got[i].Accepted() != hasA(in) {
						t.Errorf("concurrent CheckBatch(%q) = %v, want %v", in, got[i], hasA(in))
					}
				}
				if v, err := o.Check(ctx, "abc"); err != nil || v != Accept {
					t.Error("concurrent Check wrong")
				}
			}(g)
		}
		wg.Wait()
	})
}

func TestBatchConformance(t *testing.T) {
	mkInner := func() CheckOracle { return Func(hasA) }
	testBatchConformance(t, "Pool", func() BatchCheckOracle {
		return Parallel(mkInner(), 4)
	})
	testBatchConformance(t, "Pool-seq", func() BatchCheckOracle {
		return Parallel(mkInner(), 1)
	})
	testBatchConformance(t, "Cached", func() BatchCheckOracle {
		return NewCached(mkInner())
	})
	testBatchConformance(t, "Cached-of-Pool", func() BatchCheckOracle {
		return NewCached(Parallel(mkInner(), 4))
	})
	if !testing.Short() {
		testBatchConformance(t, "Exec", func() BatchCheckOracle {
			return &Exec{Argv: []string{"grep", "-q", "a"}, Workers: 4}
		})
	}
}

// TestCheckAllFanOut exercises CheckAll's worker fan-out fallback for plain
// CheckOracles (no bulk path of their own).
func TestCheckAllFanOut(t *testing.T) {
	o := CheckFunc(func(ctx context.Context, s string) (Verdict, error) {
		if hasA(s) {
			return Accept, nil
		}
		return Reject, nil
	})
	for _, workers := range []int{1, 4} {
		got, err := CheckAll(context.Background(), o, conformanceInputs, workers)
		if err != nil {
			t.Fatalf("CheckAll(workers=%d): %v", workers, err)
		}
		for i, in := range conformanceInputs {
			if got[i].Accepted() != hasA(in) {
				t.Fatalf("CheckAll(workers=%d)[%d] = %v, want %v", workers, i, got[i], hasA(in))
			}
		}
	}
}

// TestCachedInflightDedup exercises the race the single-mutex cache had:
// two goroutines missing on the same key must issue exactly one underlying
// query between them.
func TestCachedInflightDedup(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	inner := Func(func(s string) bool {
		calls.Add(1)
		<-release // hold every underlying query open
		return true
	})
	c := NewCached(inner)

	const waiters = 16
	var wg sync.WaitGroup
	started := make(chan struct{}, waiters)
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			if !accepts(c, "same-key") {
				t.Error("dedup returned wrong value")
			}
		}()
	}
	for g := 0; g < waiters; g++ {
		<-started
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("underlying queries = %d, want 1 (in-flight dedup)", n)
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != waiters-1 {
		t.Fatalf("Stats = %d hits %d misses, want %d hits 1 miss", hits, misses, waiters-1)
	}
}

// TestCachedInflightWaiterCancel checks that a caller waiting on another
// goroutine's in-flight query honors its own ctx instead of blocking until
// the owner finishes.
func TestCachedInflightWaiterCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	c := NewCached(Func(func(s string) bool {
		<-release
		return true
	}))
	owner := make(chan struct{})
	go func() {
		close(owner)
		c.Check(context.Background(), "slow-key")
	}()
	<-owner
	// Give the owner a moment to register its in-flight call; then a waiter
	// with an already-expired ctx must return promptly.
	var err error
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err = c.Check(ctx, "slow-key")
		if errors.Is(err, context.Canceled) {
			return
		}
	}
	t.Fatalf("waiter never observed its cancelled ctx: last err = %v", err)
}

// TestCachedBatchDedup checks that a batch with duplicates and overlap with
// already-cached keys issues only the novel unique queries.
func TestCachedBatchDedup(t *testing.T) {
	var calls atomic.Int64
	c := NewCached(Func(func(s string) bool {
		calls.Add(1)
		return hasA(s)
	}))
	accepts(c, "abc") // pre-cache one key
	got, err := c.CheckBatch(context.Background(), []string{"abc", "new-a", "xyz", "new-a", "abc"})
	if err != nil {
		t.Fatal(err)
	}
	want := []Verdict{Accept, Accept, Reject, Accept, Accept}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CheckBatch[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if n := calls.Load(); n != 3 { // abc, new-a, xyz — each exactly once
		t.Fatalf("underlying queries = %d, want 3", n)
	}
	hits, misses := c.Stats()
	if misses != 3 || hits != 3 {
		t.Fatalf("Stats = %d hits %d misses, want 3 hits 3 misses", hits, misses)
	}
}

// TestCachedStatsConcurrent checks hits+misses == total queries under a
// concurrent mixed load — the accuracy guarantee Stats makes.
func TestCachedStatsConcurrent(t *testing.T) {
	c := NewCached(Func(hasA))
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				accepts(c, fmt.Sprintf("key-%d", i%37))
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != goroutines*per {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d", hits, misses, hits+misses, goroutines*per)
	}
	if misses != 37 {
		t.Fatalf("misses = %d, want 37 unique keys", misses)
	}
}

// TestPoolContextCancel is the wave-cancellation contract: once ctx is
// done, the pool stops dispatching and CheckBatch reports the ctx error.
func TestPoolContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	p := Parallel(Func(func(s string) bool {
		if calls.Add(1) >= 4 {
			cancel()
		}
		return true
	}), 2)
	inputs := make([]string, 1000)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("%d", i)
	}
	_, err := p.CheckBatch(ctx, inputs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled CheckBatch err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch: %d calls", n)
	}
}

// TestPoolErrorStopsDispatch checks the other fan-out stop condition: an
// oracle error halts the wave and surfaces as the batch error.
func TestPoolErrorStopsDispatch(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("oracle exploded")
	p := Parallel(CheckFunc(func(ctx context.Context, s string) (Verdict, error) {
		if calls.Add(1) == 5 {
			return Reject, boom
		}
		return Accept, nil
	}), 2)
	inputs := make([]string, 1000)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("%d", i)
	}
	_, err := p.CheckBatch(context.Background(), inputs)
	if !errors.Is(err, boom) {
		t.Fatalf("failing CheckBatch err = %v, want the oracle error", err)
	}
	if n := calls.Load(); n >= 1000 {
		t.Fatalf("error did not stop dispatch: %d calls", n)
	}
}
