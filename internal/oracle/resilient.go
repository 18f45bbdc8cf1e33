package oracle

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"time"

	"glade/internal/telemetry"
)

// This file is the fault-tolerance layer of the oracle stack. A single
// learn run or campaign issues thousands to millions of oracle queries, so
// one transient subprocess hiccup (fork failure, ENOMEM blip, momentary
// file-descriptor exhaustion) must not abort hours of work. Resilient
// retries exactly the errors that are worth retrying — never a domain
// Verdict, which would perturb the learner's decisions and break the
// byte-identical-grammar guarantee — and a circuit breaker stops hammering
// an oracle that is failing consistently.

// ErrBreakerOpen is returned (wrapped) when the circuit breaker is open
// and the call was rejected without reaching the inner oracle. It is
// classified as transient: the breaker may close after its cooldown.
var ErrBreakerOpen = errors.New("oracle: circuit breaker open")

// transientError marks a wrapped error as transient for IsTransient.
type transientError struct{ err error }

// Error returns the wrapped error's message unchanged.
func (e *transientError) Error() string { return e.err.Error() }

// Unwrap exposes the wrapped error to errors.Is/As.
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so that IsTransient reports true for it (and
// for any error wrapping it). A nil err returns nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// transientErrnos are process-spawn and resource-exhaustion conditions
// that typically clear on their own: retrying is worthwhile. Notably
// absent: "executable file not found" and permission errors, which are
// permanent misconfigurations and must abort promptly.
var transientErrnos = []syscall.Errno{
	syscall.EAGAIN, // fork/pipe: resource temporarily unavailable
	syscall.ENOMEM, // out of memory (momentary pressure)
	syscall.EMFILE, // per-process fd limit
	syscall.ENFILE, // system-wide fd limit
	syscall.EINTR,  // interrupted syscall
	syscall.ECONNRESET,
	syscall.ECONNREFUSED,
}

// IsTransient reports whether err represents a transient oracle failure
// that is worth retrying: an error marked with MarkTransient, a rejected
// call from an open circuit breaker, or a recognized resource-exhaustion
// errno from spawning an exec oracle. Context cancellation and deadline
// expiry are never transient — the caller's clock ran out, and retrying
// cannot help. Everything else (missing binary, permission denied, a bug
// in an in-process oracle) is permanent and aborts the caller.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	if errors.Is(err, ErrBreakerOpen) {
		return true
	}
	for _, errno := range transientErrnos {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// RetryPolicy bounds how a Resilient oracle retries transient errors.
// The zero value disables retries (a single attempt per query).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per query, including
	// the first. Values <= 1 mean no retries.
	MaxAttempts int
	// BaseDelay is the cap of the first backoff window. Each subsequent
	// attempt doubles the cap, and the actual sleep is drawn uniformly
	// from [0, cap) ("full jitter"). Defaults to 5ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff window growth. Defaults to 1s.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// BreakerPolicy configures the per-oracle circuit breaker. The zero
// value disables the breaker.
type BreakerPolicy struct {
	// Threshold is the number of consecutive transient failures that
	// opens the breaker. Values <= 0 disable the breaker.
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// single half-open probe. Defaults to 500ms.
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Cooldown <= 0 {
		p.Cooldown = 500 * time.Millisecond
	}
	return p
}

// ResilientMetrics carries the telemetry instruments a Resilient oracle
// updates. All fields are optional; a nil ResilientMetrics disables
// instrumentation entirely.
type ResilientMetrics struct {
	// Retries counts retry attempts (attempts beyond the first per query).
	Retries *telemetry.Counter
	// BreakerOpens counts transitions into the open state.
	BreakerOpens *telemetry.Counter
	// BreakerState gauges the current state: 0 closed, 1 half-open, 2 open.
	BreakerState *telemetry.Gauge
}

// NewResilientMetrics registers the standard resilience instruments
// (glade_oracle_retries_total, glade_oracle_breaker_opens_total,
// glade_oracle_breaker_state) on reg with the given labels.
func NewResilientMetrics(reg *telemetry.Registry, labels ...telemetry.Label) *ResilientMetrics {
	return &ResilientMetrics{
		Retries:      reg.Counter("glade_oracle_retries_total", "Oracle query retry attempts after transient failures.", labels...),
		BreakerOpens: reg.Counter("glade_oracle_breaker_opens_total", "Circuit breaker transitions into the open state.", labels...),
		BreakerState: reg.Gauge("glade_oracle_breaker_state", "Circuit breaker state: 0 closed, 1 half-open, 2 open.", labels...),
	}
}

// Breaker states. Half-open exists only while a single probe is in
// flight: the probe's outcome immediately resolves to closed or open.
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

// ResilientOptions configures NewResilient.
type ResilientOptions struct {
	// Retry bounds transient-error retries. Zero value: no retries.
	Retry RetryPolicy
	// Breaker configures the circuit breaker. Zero value: disabled.
	Breaker BreakerPolicy
	// Workers sets the fan-out width of CheckBatch (default 1). The
	// batch path must run through Resilient.Check — not the inner
	// oracle's own batch path — so every query gets the retry loop.
	Workers int
	// Metrics, when non-nil, receives retry and breaker telemetry.
	Metrics *ResilientMetrics
	// JitterSeed seeds the backoff jitter source (0 means 1). Jitter
	// affects only timing, never results, so any seed preserves
	// grammar determinism.
	JitterSeed int64
}

// Resilient wraps a CheckOracle with bounded retries and a circuit
// breaker. Domain verdicts — including Crash and Timeout — pass through
// untouched on the first attempt; only transient *errors* (per
// IsTransient) are retried, with full-jitter exponential backoff that
// respects ctx cancellation and deadlines. Permanent errors return
// immediately. A panic in the inner oracle is contained and surfaces as
// a transient error rather than unwinding a worker goroutine.
//
// The breaker counts consecutive transient failures; at the configured
// threshold it opens and fails calls fast with ErrBreakerOpen until the
// cooldown elapses, then admits exactly one half-open probe. A
// successful probe closes the breaker; a failed probe re-opens it.
type Resilient struct {
	inner   CheckOracle
	retry   RetryPolicy
	breaker BreakerPolicy
	met     *ResilientMetrics
	workers int

	rngMu sync.Mutex
	rng   *rand.Rand

	mu           sync.Mutex
	state        int
	failures     int // consecutive transient failures while closed
	openedAt     time.Time
	retries      uint64
	breakerOpens uint64
}

// NewResilient wraps inner with the retry and breaker behavior described
// on Resilient.
func NewResilient(inner CheckOracle, opt ResilientOptions) *Resilient {
	seed := opt.JitterSeed
	if seed == 0 {
		seed = 1
	}
	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	return &Resilient{
		inner:   inner,
		retry:   opt.Retry.withDefaults(),
		breaker: opt.Breaker.withDefaults(),
		met:     opt.Metrics,
		workers: workers,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Unwrap returns the wrapped oracle, letting callers inspect the
// underlying stack (e.g. to detect an exec oracle for crash triage).
func (r *Resilient) Unwrap() CheckOracle { return r.inner }

// Innermost strips every wrapper exposing Unwrap() CheckOracle and
// returns the base oracle.
func Innermost(o CheckOracle) CheckOracle {
	for {
		u, ok := o.(interface{ Unwrap() CheckOracle })
		if !ok {
			return o
		}
		o = u.Unwrap()
	}
}

// ResilientStats is a snapshot of a Resilient oracle's counters.
type ResilientStats struct {
	// Retries is the number of retry attempts issued so far.
	Retries uint64
	// BreakerOpens counts transitions into the open state.
	BreakerOpens uint64
	// State is the current breaker state: "closed", "half-open" or "open".
	State string
}

// Stats returns a point-in-time snapshot of the retry and breaker
// counters.
func (r *Resilient) Stats() ResilientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := "closed"
	switch r.state {
	case breakerHalfOpen:
		st = "half-open"
	case breakerOpen:
		st = "open"
	}
	return ResilientStats{Retries: r.retries, BreakerOpens: r.breakerOpens, State: st}
}

// Check implements CheckOracle with the retry/breaker loop. A verdict
// (nil error) always returns immediately — retries can only happen after
// an error, so wrapping an oracle in Resilient never changes the verdict
// stream a learner observes.
func (r *Resilient) Check(ctx context.Context, input string) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		return Reject, err
	}
	maxAttempts := r.retry.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		v, err := r.attempt(ctx, input)
		if err == nil {
			return v, nil
		}
		if !IsTransient(err) {
			return Reject, err
		}
		lastErr = err
		if attempt >= maxAttempts {
			break
		}
		if serr := r.backoff(ctx, attempt, err); serr != nil {
			// The caller's context expired while backing off; the
			// context error dominates so cancellation propagates
			// exactly as it would from the inner oracle.
			return Reject, serr
		}
		r.countRetry()
	}
	if maxAttempts == 1 {
		return Reject, lastErr
	}
	return Reject, fmt.Errorf("oracle: %d attempts failed: %w", maxAttempts, lastErr)
}

// attempt runs one guarded call: breaker admission, panic containment,
// and breaker bookkeeping on the outcome.
func (r *Resilient) attempt(ctx context.Context, input string) (v Verdict, err error) {
	if err := r.admit(); err != nil {
		return Reject, err
	}
	defer func() {
		if p := recover(); p != nil {
			v, err = Reject, MarkTransient(fmt.Errorf("oracle: panic in oracle: %v", p))
		}
		r.onResult(err)
	}()
	return r.inner.Check(ctx, input)
}

// admit applies the breaker gate. In the open state calls fail fast
// until the cooldown elapses; the first call after cooldown becomes the
// single half-open probe and everyone else keeps failing fast until the
// probe resolves.
func (r *Resilient) admit() error {
	if r.breaker.Threshold <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case breakerClosed:
		return nil
	case breakerHalfOpen:
		// A probe is already in flight; fail fast.
		return fmt.Errorf("oracle: probe in flight: %w", ErrBreakerOpen)
	default: // breakerOpen
		if wait := r.breaker.Cooldown - time.Since(r.openedAt); wait > 0 {
			return fmt.Errorf("oracle: cooling down for %v: %w", wait.Round(time.Millisecond), ErrBreakerOpen)
		}
		r.setStateLocked(breakerHalfOpen)
		return nil
	}
}

// onResult updates breaker state from a call outcome. Only transient
// errors count as failures: a permanent error aborts the caller anyway,
// and tripping the breaker on it would just mask the real error from
// concurrent callers.
func (r *Resilient) onResult(err error) {
	if r.breaker.Threshold <= 0 {
		return
	}
	if err != nil && errors.Is(err, ErrBreakerOpen) {
		return // breaker rejections don't feed back into the breaker
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil || !IsTransient(err) {
		r.failures = 0
		if r.state != breakerClosed {
			r.setStateLocked(breakerClosed)
		}
		return
	}
	switch r.state {
	case breakerHalfOpen:
		// The probe failed: back to open, restart the cooldown clock.
		r.openLocked()
	case breakerClosed:
		r.failures++
		if r.failures >= r.breaker.Threshold {
			r.openLocked()
		}
	}
}

func (r *Resilient) openLocked() {
	r.setStateLocked(breakerOpen)
	r.openedAt = time.Now()
	r.failures = 0
	r.breakerOpens++
	if r.met != nil && r.met.BreakerOpens != nil {
		r.met.BreakerOpens.Inc()
	}
}

func (r *Resilient) setStateLocked(state int) {
	r.state = state
	if r.met != nil && r.met.BreakerState != nil {
		var v float64
		switch state {
		case breakerHalfOpen:
			v = 1
		case breakerOpen:
			v = 2
		}
		r.met.BreakerState.Set(v)
	}
}

func (r *Resilient) countRetry() {
	r.mu.Lock()
	r.retries++
	r.mu.Unlock()
	if r.met != nil && r.met.Retries != nil {
		r.met.Retries.Inc()
	}
}

// backoff sleeps before the next attempt: full-jitter exponential
// backoff, except that breaker rejections wait out the remaining
// cooldown instead (plus jitter) so a retry budget is not burned
// hammering an open breaker. The sleep aborts as soon as ctx is done.
func (r *Resilient) backoff(ctx context.Context, attempt int, cause error) error {
	window := r.retry.BaseDelay << (attempt - 1)
	if window <= 0 || window > r.retry.MaxDelay {
		window = r.retry.MaxDelay
	}
	d := r.jitter(window)
	if errors.Is(cause, ErrBreakerOpen) {
		r.mu.Lock()
		if r.state == breakerOpen {
			if wait := r.breaker.Cooldown - time.Since(r.openedAt); wait > d {
				d = wait + r.jitterUnlockedSafe(r.retry.BaseDelay)
			}
		}
		r.mu.Unlock()
	}
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// jitter draws uniformly from [0, window).
func (r *Resilient) jitter(window time.Duration) time.Duration {
	if window <= 0 {
		return 0
	}
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return time.Duration(r.rng.Int63n(int64(window)))
}

// jitterUnlockedSafe is jitter for call sites already holding r.mu; the
// jitter source has its own lock, so this is safe — the name just
// documents that r.mu and rngMu never nest the other way.
func (r *Resilient) jitterUnlockedSafe(window time.Duration) time.Duration {
	return r.jitter(window)
}

// CheckBatch fans the batch out over the configured worker count, with
// every query going through the retry/breaker loop. It deliberately does
// not delegate to the inner oracle's own batch path, which would bypass
// the retry loop.
func (r *Resilient) CheckBatch(ctx context.Context, inputs []string) ([]Verdict, error) {
	return fanOut(ctx, r, r.workers, inputs)
}
