package oracle

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// FaultInjector is a chaos wrapper for tests: it injects faults into an
// otherwise healthy oracle on a deterministic, seed-derived schedule.
// Determinism is the point — fault decisions are keyed on hash(seed,
// input, per-input attempt index), not on call order, so the same seed
// produces the same fault schedule regardless of goroutine interleaving,
// and a retry of the same input advances the attempt index so it can
// succeed where the first attempt was failed.
//
// Four fault kinds are supported, checked in this order per attempt:
// hang-until-ctx, panic, transient error, added latency. Injected errors
// are marked transient (MarkTransient), so a Resilient wrapper above the
// injector retries them; verdicts from surviving calls pass through
// untouched, which is what lets core's TestGoldenGrammars assert
// byte-identical grammars under fault injection.
type FaultInjector struct {
	inner CheckOracle
	opt   FaultOptions

	mu       sync.Mutex
	attempts map[string]uint64
	injected uint64
}

// FaultOptions configures a FaultInjector. All rates are probabilities
// in [0, 1] evaluated independently per attempt.
type FaultOptions struct {
	// Seed derives the deterministic fault schedule (0 means 1).
	Seed int64
	// TransientRate is the probability an attempt fails with an
	// injected transient error.
	TransientRate float64
	// LatencyRate is the probability an attempt is delayed by Latency
	// before reaching the inner oracle.
	LatencyRate float64
	// Latency is the injected delay (default 1ms when LatencyRate > 0).
	Latency time.Duration
	// HangRate is the probability an attempt blocks until ctx is done
	// and returns ctx.Err().
	HangRate float64
	// PanicRate is the probability an attempt panics, exercising panic
	// containment in the layers above.
	PanicRate float64
}

// NewFaultInjector wraps inner with deterministic fault injection.
func NewFaultInjector(inner CheckOracle, opt FaultOptions) *FaultInjector {
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.Latency <= 0 {
		opt.Latency = time.Millisecond
	}
	return &FaultInjector{
		inner:    inner,
		opt:      opt,
		attempts: make(map[string]uint64),
	}
}

// Unwrap returns the wrapped oracle.
func (f *FaultInjector) Unwrap() CheckOracle { return f.inner }

// Injected reports how many faults (of any kind) have been injected.
func (f *FaultInjector) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// roll returns a deterministic pseudo-uniform value in [0, 1) for the
// given input, attempt index, and fault-kind salt. The hash folds the
// configured Seed, so the schedule is stable across processes and
// goroutine interleavings.
func (f *FaultInjector) roll(salt string, input string, attempt uint64) float64 {
	// FNV-1a over the decision tuple: stable across processes, cheap,
	// and well-mixed enough for fault scheduling.
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	for i := 0; i < 8; i++ {
		mix(byte(uint64(f.opt.Seed) >> (8 * i)))
	}
	for i := 0; i < len(salt); i++ {
		mix(salt[i])
	}
	mix(0)
	for i := 0; i < len(input); i++ {
		mix(input[i])
	}
	mix(0)
	for i := 0; i < 8; i++ {
		mix(byte(attempt >> (8 * i)))
	}
	return float64(h>>11) / float64(1<<53)
}

// nextAttempt returns this call's attempt index for input (0-based) and
// bumps the counter.
func (f *FaultInjector) nextAttempt(input string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.attempts[input]
	f.attempts[input] = n + 1
	return n
}

func (f *FaultInjector) countInjected() {
	f.mu.Lock()
	f.injected++
	f.mu.Unlock()
}

// Check implements CheckOracle, injecting scheduled faults before
// delegating to the inner oracle.
func (f *FaultInjector) Check(ctx context.Context, input string) (Verdict, error) {
	attempt := f.nextAttempt(input)
	if f.opt.HangRate > 0 && f.roll("hang", input, attempt) < f.opt.HangRate {
		f.countInjected()
		<-ctx.Done()
		return Reject, ctx.Err()
	}
	if f.opt.PanicRate > 0 && f.roll("panic", input, attempt) < f.opt.PanicRate {
		f.countInjected()
		panic(fmt.Sprintf("faultinject: scheduled panic (input %q attempt %d)", input, attempt))
	}
	if f.opt.TransientRate > 0 && f.roll("transient", input, attempt) < f.opt.TransientRate {
		f.countInjected()
		return Reject, MarkTransient(fmt.Errorf("faultinject: scheduled transient fault (input %q attempt %d)", input, attempt))
	}
	if f.opt.LatencyRate > 0 && f.roll("latency", input, attempt) < f.opt.LatencyRate {
		f.countInjected()
		timer := time.NewTimer(f.opt.Latency)
		defer timer.Stop()
		select {
		case <-ctx.Done():
			return Reject, ctx.Err()
		case <-timer.C:
		}
	}
	return f.inner.Check(ctx, input)
}
