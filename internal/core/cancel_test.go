package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"glade/internal/oracle"
)

// TestLearnCancelReturnsPromptly is the cancellation contract of the
// learner: cancelling the context mid-phase makes Learn return quickly —
// within one oracle wave — with an error wrapping ctx.Err(), and the
// oracle stops being queried. Run under -race this also exercises the
// concurrent cancellation path of the worker pool.
func TestLearnCancelReturnsPromptly(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var queries atomic.Int64
			var atCancel atomic.Int64
			o := oracle.CheckFunc(func(qctx context.Context, s string) (oracle.Verdict, error) {
				n := queries.Add(1)
				if n == 40 {
					atCancel.Store(n)
					cancel()
				}
				if err := qctx.Err(); err != nil {
					return oracle.Reject, err
				}
				if figure1XML(s) {
					return oracle.Accept, nil
				}
				return oracle.Reject, nil
			})
			opts := DefaultOptions()
			opts.Workers = workers
			start := time.Now()
			res, err := Learn(ctx, []string{"<a>hi</a>", "xyz<a>q</a>"}, o, opts)
			elapsed := time.Since(start)
			if err == nil {
				t.Fatalf("cancelled Learn returned a grammar: %v", res.Grammar)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled Learn err = %v, want context.Canceled", err)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("cancelled Learn took %v, want prompt return", elapsed)
			}
			// After the learner observed the cancellation, no further oracle
			// queries may be issued: the overshoot is bounded by the wave
			// that was already in flight (wave cap is workers*8, each
			// candidate contributing up to 2 checks) plus the one sequential
			// scan that trips on the sticky error.
			total, mark := queries.Load(), atCancel.Load()
			if limit := mark + int64(workers)*16 + 64; total > limit {
				t.Fatalf("oracle saw %d queries, %d at cancel — cancellation leaked past one wave (limit %d)",
					total, mark, limit)
			}
		})
	}
}

// TestLearnCancelledBeforeStart checks the degenerate case: a context
// already cancelled at the call fails the seed check, not the phases.
func TestLearnCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Learn(ctx, []string{"<a>hi</a>"}, oracle.Func(figure1XML), DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLearnSurfacesOracleError is the error half of the oracle contract: an
// oracle that fails mid-run (as opposed to rejecting inputs) must abort
// learning with that error — never silently read as "reject" and keep
// synthesizing.
func TestLearnSurfacesOracleError(t *testing.T) {
	boom := errors.New("target binary vanished")
	for _, workers := range []int{1, 8} {
		var queries atomic.Int64
		o := oracle.CheckFunc(func(ctx context.Context, s string) (oracle.Verdict, error) {
			if queries.Add(1) > 30 {
				return oracle.Reject, boom
			}
			if figure1XML(s) {
				return oracle.Accept, nil
			}
			return oracle.Reject, nil
		})
		opts := DefaultOptions()
		opts.Workers = workers
		res, err := Learn(context.Background(), []string{"<a>hi</a>"}, o, opts)
		if err == nil {
			t.Fatalf("workers=%d: broken oracle still returned a grammar: %v", workers, res.Grammar)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the oracle error", workers, err)
		}
	}
}

// TestLearnSeedOracleError checks the error surfaces from the very first
// wave (seed validation) too, distinct from the "seed rejected" error.
func TestLearnSeedOracleError(t *testing.T) {
	boom := errors.New("oracle down")
	o := oracle.CheckFunc(func(ctx context.Context, s string) (oracle.Verdict, error) {
		return oracle.Reject, boom
	})
	_, err := Learn(context.Background(), []string{"<a>hi</a>"}, o, DefaultOptions())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the oracle error", err)
	}
}
