// Package oracle defines the membership-oracle abstraction of §2: blackbox
// access to a program answering "is this input valid?". It also provides the
// wrappers the learner and the evaluation need — batching, worker-pool
// parallelism, retries, fault injection — and an oracle that executes an
// external command, which is how the CLI treats a real program binary
// exactly as the paper does (run the program, valid iff it does not report
// an error).
//
// Oracle queries dominate GLADE's cost (§4.3): every candidate
// generalization, merge check, and character-generalization probe is one
// blackbox program run. The learner therefore memoizes verdicts itself and
// issues independent checks as waves through the batched bulk path;
// Parallel → <program> turns each wave into bounded concurrent program
// runs.
//
// # The contract: verdicts and context
//
// CheckOracle is the one oracle interface: Check(ctx, input) answers one
// membership query with a Verdict (Accept, Reject, Crash, Timeout) and an
// error. The two channels carry different information:
//
//   - The Verdict is a domain answer about the input. Crash and Timeout are
//     rejections that carry extra signal (the classic fuzzing trophies).
//   - A non-nil error means the oracle itself failed to answer — the target
//     binary could not be started, or ctx was cancelled before the query
//     ran. Callers must not treat an error as a rejection: learning aborts
//     and surfaces it, rather than silently synthesizing from garbage.
//
// A pure in-process predicate becomes a CheckOracle through Func, which
// contains panics as Crash and observes cancellation between queries.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// Verdict is the outcome of one membership query: the domain answer about
// the input (not about the oracle — oracle failures travel as errors next
// to the Verdict).
type Verdict uint8

// The four verdicts. Only Accept means the input is in the language; Crash
// and Timeout are rejections that carry extra signal — the target died on a
// signal, or hung until the per-query deadline killed it — which fuzzing
// campaigns triage into their own buckets.
const (
	// Reject: the target processed the input and reported it invalid.
	Reject Verdict = iota
	// Accept: the input is in the target's language.
	Accept
	// Crash: the target died on a signal (SIGSEGV, SIGABRT, ...) rather
	// than exiting.
	Crash
	// Timeout: the target exceeded the per-query deadline and was killed.
	Timeout
)

// Accepted reports whether the verdict is Accept — the collapse to the
// boolean membership answer of §2.
func (v Verdict) Accepted() bool { return v == Accept }

// String renders the verdict ("accept", "reject", "crash", "timeout").
func (v Verdict) String() string {
	switch v {
	case Accept:
		return "accept"
	case Crash:
		return "crash"
	case Timeout:
		return "timeout"
	default:
		return "reject"
	}
}

// CheckOracle answers membership queries for the target language L* with
// full verdicts, deadline and cancellation support. It is the one oracle
// contract; Func adapts a pure predicate to it.
type CheckOracle interface {
	// Check answers one membership query. The returned error is about the
	// oracle, not the input: ctx cancellation or an oracle that could not
	// run. Implementations must respect ctx promptly.
	Check(ctx context.Context, input string) (Verdict, error)
}

// BatchCheckOracle is a CheckOracle with a bulk path: implementations may
// answer a slice of membership queries concurrently. The returned slice is
// parallel to inputs; on a non-nil error the slice contents are
// meaningless and must be discarded. Implementations must be safe for
// concurrent use.
type BatchCheckOracle interface {
	CheckOracle
	// CheckBatch answers every query, in input order, stopping early on
	// cancellation or oracle failure.
	CheckBatch(ctx context.Context, inputs []string) ([]Verdict, error)
}

// CheckAll answers every query: through o's bulk path when it provides one
// (the bulk path chooses its own concurrency), otherwise fanning Check
// calls across at most workers goroutines (values below 2 run
// sequentially). It is how callers issue a wave of independent checks
// without caring what o is. On error the returned slice must be discarded.
func CheckAll(ctx context.Context, o CheckOracle, inputs []string, workers int) ([]Verdict, error) {
	if b, ok := o.(BatchCheckOracle); ok {
		return b.CheckBatch(ctx, inputs)
	}
	return fanOut(ctx, o, workers, inputs)
}

// CheckFunc adapts a plain context-aware function to a CheckOracle.
type CheckFunc func(ctx context.Context, input string) (Verdict, error)

// Check implements CheckOracle.
func (f CheckFunc) Check(ctx context.Context, input string) (Verdict, error) {
	return f(ctx, input)
}

// Func adapts a plain predicate to CheckOracle: Check maps true/false to
// Accept/Reject (after honoring ctx).
type Func func(string) bool

// Check implements CheckOracle. A predicate panic is the in-process
// analogue of a target dying on a signal, so it answers Crash instead of
// unwinding into (and killing) the calling worker goroutine. The predicate
// itself cannot be interrupted, so cancellation is only observed between
// queries.
func (f Func) Check(ctx context.Context, input string) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		return Reject, err
	}
	return Protect(f, input), nil
}

// Protect answers one boolean membership query with panic containment: a
// predicate panic becomes Crash — the same trophy as a subprocess target
// dying on a signal — rather than unwinding into the caller. Every
// in-process adapter (Func, the builtin registry) answers through it so
// the verdict contract holds without a subprocess.
func Protect(pred func(string) bool, input string) (v Verdict) {
	defer func() {
		if recover() != nil {
			v = Crash
		}
	}()
	if pred(input) {
		return Accept
	}
	return Reject
}

// Exec is an oracle that runs an external command per query, feeding the
// input on stdin. The input is accepted when the command exits with status
// zero and, if ErrSubstring is non-empty, stderr does not contain it. This
// mirrors the paper's setup of observing whether the program prints an
// error message. Exec is safe for concurrent use; its bulk path fans
// subprocess runs out across Workers concurrent processes.
//
// Check is the canonical implementation: a signal death is Crash, a
// per-query deadline kill is Timeout, a command that cannot be started at
// all (missing binary, fork failure) is an oracle error — not a rejection.
type Exec struct {
	// Command and arguments, e.g. {"python3", "-"}.
	Argv []string
	// ErrSubstring, when non-empty, marks inputs invalid if stderr contains
	// it even when the exit status is zero.
	ErrSubstring string
	// Workers bounds the concurrent subprocesses CheckBatch may spawn.
	// Values below 1 mean sequential execution.
	Workers int
	// Timeout bounds each query's subprocess run; zero means unbounded. A
	// run that exceeds it is killed and the query answers Timeout, so a
	// target that hangs on some candidate cannot wedge a learn job. The
	// caller's ctx bounds the run as well: whichever deadline is tighter
	// wins, and a caller cancellation surfaces as an error, not a verdict.
	Timeout time.Duration
}

// errNoCommand reports an Exec with no Argv — an oracle that cannot answer.
var errNoCommand = errors.New("oracle: exec oracle has no command")

// Check implements CheckOracle by running the command under ctx (and, when
// Timeout is set, a per-query deadline nested inside it).
func (e *Exec) Check(ctx context.Context, input string) (Verdict, error) {
	if len(e.Argv) == 0 {
		return Reject, errNoCommand
	}
	if err := ctx.Err(); err != nil {
		return Reject, err
	}
	runCtx := ctx
	if e.Timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, e.Timeout)
		defer cancel()
	}
	cmd := exec.CommandContext(runCtx, e.Argv[0], e.Argv[1:]...)
	cmd.Stdin = strings.NewReader(input)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	// Grandchildren inheriting stderr can keep Wait blocked past the kill;
	// WaitDelay closes the pipes shortly after cancellation so the deadline
	// is honored regardless of what the target spawned.
	if e.Timeout > 0 {
		cmd.WaitDelay = e.Timeout/4 + 10*time.Millisecond
	}
	if err := cmd.Run(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// The caller gave up (cancellation or its own deadline): the
			// query has no answer, so this is an oracle-level error.
			return Reject, ctxErr
		}
		if runCtx.Err() == context.DeadlineExceeded {
			return Timeout, nil
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ProcessState != nil {
			// ExitCode is -1 when the process was terminated by a signal;
			// the timeout kill is already accounted for above, so a
			// remaining -1 is the target dying on its own (segfault, ...).
			if ee.ProcessState.ExitCode() == -1 {
				return Crash, nil
			}
			return Reject, nil
		}
		// The command never ran (missing binary, fork failure): the oracle
		// is broken, which must not read as "input rejected".
		return Reject, fmt.Errorf("oracle: exec %s: %w", e.Argv[0], err)
	}
	if e.ErrSubstring != "" && strings.Contains(stderr.String(), e.ErrSubstring) {
		return Reject, nil
	}
	return Accept, nil
}

// CheckBatch implements BatchCheckOracle, running up to Workers
// subprocesses concurrently under ctx.
func (e *Exec) CheckBatch(ctx context.Context, inputs []string) ([]Verdict, error) {
	return fanOut(ctx, e, e.Workers, inputs)
}
