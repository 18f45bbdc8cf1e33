package oracle

import (
	"context"
	"fmt"
	"testing"
)

// TestProtect checks the shared panic guard's three outcomes.
func TestProtect(t *testing.T) {
	if v := Protect(func(string) bool { return true }, "x"); v != Accept {
		t.Fatalf("accepting predicate: %v", v)
	}
	if v := Protect(func(string) bool { return false }, "x"); v != Reject {
		t.Fatalf("rejecting predicate: %v", v)
	}
	if v := Protect(func(string) bool { panic("boom") }, "x"); v != Crash {
		t.Fatalf("panicking predicate: %v", v)
	}
}

// TestFuncPanicMidBatchIsCrash drives a batch through the parallel wave
// engine with a predicate that panics on some inputs. The panics must
// surface as VerdictCrash on exactly the offending inputs — not kill the
// worker goroutines (which would deadlock or abort the process) — and
// the remaining inputs must still be answered. Run under -race in CI,
// this also checks the recovery path involves no data races.
func TestFuncPanicMidBatchIsCrash(t *testing.T) {
	o := Func(func(s string) bool {
		if len(s) >= 4 && s[:4] == "boom" {
			panic("validator exploded on " + s)
		}
		return true
	})
	var inputs []string
	for i := 0; i < 64; i++ {
		if i%5 == 0 {
			inputs = append(inputs, fmt.Sprintf("boom-%d", i))
		} else {
			inputs = append(inputs, fmt.Sprintf("fine-%d", i))
		}
	}
	for _, workers := range []int{1, 8} {
		verdicts, err := CheckAll(context.Background(), o, inputs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(verdicts) != len(inputs) {
			t.Fatalf("workers=%d: %d verdicts for %d inputs", workers, len(verdicts), len(inputs))
		}
		for i, v := range verdicts {
			want := Accept
			if i%5 == 0 {
				want = Crash
			}
			if v != want {
				t.Errorf("workers=%d input %q: verdict %v, want %v", workers, inputs[i], v, want)
			}
		}
	}

	// The same contract through the Pool batch path.
	pool := Parallel(o, 4)
	verdicts, err := pool.CheckBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if verdicts[0] != Crash || verdicts[1] != Accept {
		t.Fatalf("pool batch: verdicts[0]=%v verdicts[1]=%v", verdicts[0], verdicts[1])
	}
}
