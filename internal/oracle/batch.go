package oracle

import (
	"context"
	"sync"
	"sync/atomic"
)

// Pool is the worker-pool BatchCheckOracle adapter: CheckBatch fans queries
// out across a bounded number of goroutines, each calling the inner
// oracle's Check. The inner oracle must be safe for concurrent use.
// Cancellation is checked inside the fan-out: once ctx is done no further
// queries are dispatched and CheckBatch returns ctx.Err().
type Pool struct {
	inner   CheckOracle
	workers int
}

// Parallel adapts inner into a Pool with the given worker bound. Values of
// workers below 1 are treated as 1 (sequential).
func Parallel(inner CheckOracle, workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	return &Pool{inner: inner, workers: workers}
}

// Check implements CheckOracle by delegating a single query to the inner
// oracle.
func (p *Pool) Check(ctx context.Context, input string) (Verdict, error) {
	return p.inner.Check(ctx, input)
}

// CheckBatch implements BatchCheckOracle.
func (p *Pool) CheckBatch(ctx context.Context, inputs []string) ([]Verdict, error) {
	return fanOut(ctx, p.inner, p.workers, inputs)
}

// fanOut answers inputs through o.Check using at most workers concurrent
// goroutines. It stops dispatching once ctx is done or any query returns an
// error, and reports the first error observed; on a non-nil error the
// verdict slice is meaningless and must be discarded. It is the shared
// engine behind Pool, the concurrent Exec bulk path, and CheckAll's
// fallback for plain CheckOracles.
func fanOut(ctx context.Context, o CheckOracle, workers int, inputs []string) ([]Verdict, error) {
	out := make([]Verdict, len(inputs))
	n := len(inputs)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i, in := range inputs {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := o.Check(ctx, in)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next     atomic.Int64
		stopped  atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		stopped.Store(true)
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stopped.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				v, err := o.Check(ctx, inputs[i])
				if err != nil {
					fail(err)
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	errMu.Lock()
	defer errMu.Unlock()
	return out, firstErr
}
