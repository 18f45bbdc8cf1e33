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
