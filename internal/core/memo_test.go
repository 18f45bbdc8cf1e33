package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"glade/internal/oracle"
)

// errDown is the failure of a broken memoOracle.
var errDown = errors.New("oracle down")

// memoOracle accepts inputs containing "a" and counts the queries that
// reach it. While broken is set every query fails with errDown; a query
// under a cancelled ctx fails with ctx.Err(). It is safe for concurrent use,
// so it can sit below the worker pool.
type memoOracle struct {
	calls  atomic.Int64
	broken atomic.Bool
}

func (o *memoOracle) Check(ctx context.Context, s string) (oracle.Verdict, error) {
	o.calls.Add(1)
	if o.broken.Load() {
		return oracle.Reject, errDown
	}
	if err := ctx.Err(); err != nil {
		return oracle.Reject, err
	}
	if strings.Contains(s, "a") {
		return oracle.Accept, nil
	}
	return oracle.Reject, nil
}

// TestMemoRepeatedCheck pins the memo's basic contract: a check asked again
// is answered from memory, so each distinct check costs one query and every
// repeat counts as one cache hit.
func TestMemoRepeatedCheck(t *testing.T) {
	o := &memoOracle{}
	l := newLearner(context.Background(), o, DefaultOptions())
	for i := 0; i < 5; i++ {
		if !l.accepts("yes-a") || l.accepts("no") {
			t.Fatal("memoized answers wrong")
		}
	}
	if n := o.calls.Load(); n != 2 {
		t.Fatalf("oracle queries = %d, want 2", n)
	}
	if q, h := l.stats.OracleQueries, l.stats.CacheHits; q != 2 || h != 8 {
		t.Fatalf("Stats = %d queries %d cache hits, want 2 and 8", q, h)
	}
}

// TestMemoWaveDedup pins the wave path: a wave with duplicates and
// already-answered checks sends each new distinct check to the oracle once,
// with the worker pool below the memo or without it, and counts every
// repeat and every already-answered check as a hit.
func TestMemoWaveDedup(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := &memoOracle{}
			opts := DefaultOptions()
			opts.Workers = workers
			l := newLearner(context.Background(), o, opts)
			l.accepts("abc") // answer one check before the wave
			l.prefetch([]string{"abc", "new-a", "xyz", "new-a", "abc"})
			if l.oracleErr != nil {
				t.Fatal(l.oracleErr)
			}
			if n := o.calls.Load(); n != 3 { // abc, new-a, xyz: each exactly once
				t.Fatalf("oracle queries = %d, want 3", n)
			}
			s := l.stats
			if s.OracleQueries != 3 || s.CacheHits != 3 || s.Waves != 1 {
				t.Fatalf("Stats = %d queries %d cache hits %d waves, want 3, 3 and 1", s.OracleQueries, s.CacheHits, s.Waves)
			}
			want := map[string]oracle.Verdict{"abc": oracle.Accept, "new-a": oracle.Accept, "xyz": oracle.Reject}
			if len(l.memo) != len(want) {
				t.Fatalf("memo = %v, want %v", l.memo, want)
			}
			for k, v := range want {
				if l.memo[k] != v {
					t.Fatalf("memo[%q] = %v, want %v", k, l.memo[k], v)
				}
			}
		})
	}
}

// TestMemoFailureNotMemoized pins that an oracle error or a cancelled ctx,
// on the single-check path or the wave path, memoizes nothing: once the
// oracle answers again, the same checks reach it afresh. A failure must not
// turn into a remembered rejection.
func TestMemoFailureNotMemoized(t *testing.T) {
	paths := []struct {
		name string
		ask  func(l *learner, checks []string)
	}{
		{"query", func(l *learner, checks []string) {
			for _, c := range checks {
				l.accepts(c)
			}
		}},
		{"wave", func(l *learner, checks []string) { l.prefetch(checks) }},
	}
	checks := []string{"ka", "kb"}
	for _, path := range paths {
		for _, fail := range []string{"error", "cancelled"} {
			t.Run(path.name+"-"+fail, func(t *testing.T) {
				o := &memoOracle{}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				l := newLearner(ctx, o, DefaultOptions())
				want := errDown
				if fail == "error" {
					o.broken.Store(true)
				} else {
					cancel()
					want = context.Canceled
				}
				path.ask(l, checks)
				if !errors.Is(l.oracleErr, want) {
					t.Fatalf("oracleErr = %v, want %v", l.oracleErr, want)
				}
				if len(l.memo) != 0 {
					t.Fatalf("a failed %s memoized %v", path.name, l.memo)
				}

				o.broken.Store(false)
				l.ctx, l.oracleErr = context.Background(), nil
				before := o.calls.Load()
				path.ask(l, checks)
				if l.oracleErr != nil {
					t.Fatal(l.oracleErr)
				}
				if n := o.calls.Load() - before; n != int64(len(checks)) {
					t.Fatalf("asked again, %d checks reached the oracle, want %d", n, len(checks))
				}
				if l.memo["ka"] != oracle.Accept || l.memo["kb"] != oracle.Reject {
					t.Fatalf("memo after recovery = %v", l.memo)
				}
			})
		}
	}
}
