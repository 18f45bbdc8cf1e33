// Package registry populates the oracle package's named-oracle table with
// every in-process oracle this repository ships: the builtin oracles over
// pure-Go targets (encoding/json, encoding/xml, net/url, regexp, mime,
// CSV, semver, Go source via go/parser, plus a hand-rolled strict-JSON
// variant for differential campaigns), the §8.3 simulated programs, and
// the §8.2 evaluation languages.
//
// Importing the package (a blank import suffices) makes every
// oracle.Spec name resolvable through oracle.ParseSpec and
// oracle.Spec.Build:
//
//	import _ "glade/internal/oracle/registry"
//
//	spec, _ := oracle.ParseSpec("builtin:json")
//	o, seeds, _ := spec.Build(oracle.BuildOptions{})
//
// Builtins uphold the full verdict contract without a subprocess: each
// query runs through a guard that contains panics as VerdictCrash and —
// when a per-query timeout is configured — bounds the call with a
// deadline that answers VerdictTimeout, exactly mirroring the semantics
// of oracle.Exec for external commands. Queries cost a function call
// instead of a fork/exec, which is what makes differential campaigns and
// large learn jobs cheap (TestBuiltinFasterThanExec holds a builtin to at
// least 50x the query rate of the same validator behind oracle.Exec).
package registry

import (
	"context"
	"time"

	"glade/internal/oracle"
	"glade/internal/programs"
	"glade/internal/targets"
)

// InProcess is the registry's guard wrapper: a CheckOracle over a pure-Go
// predicate that upholds the verdict contract of oracle.Exec without a
// subprocess. A predicate panic answers Crash; when a timeout is set, a
// query exceeding it answers Timeout (the predicate's goroutine is
// abandoned — pure-Go code cannot be killed — but the caller moves on);
// caller cancellation observed before an answer surfaces as an error,
// never as a verdict.
type InProcess struct {
	name    string
	fn      func(string) bool
	timeout time.Duration
}

// NewInProcess wraps a pure-Go predicate in the registry guard. timeout
// bounds each query; zero leaves queries bounded only by the caller's
// context.
func NewInProcess(name string, fn func(string) bool, timeout time.Duration) *InProcess {
	return &InProcess{name: name, fn: fn, timeout: timeout}
}

// Name returns the registered name the oracle was built under.
func (o *InProcess) Name() string { return o.name }

// Check implements oracle.CheckOracle. With no timeout it answers inline
// once ctx is checked, as oracle.Func does: the predicate cannot be
// interrupted, so a goroutine would only let the query return while the
// predicate kept running. With a timeout the predicate runs in its own
// goroutine, so the deadline or the caller's cancellation is honored
// even though the predicate itself is uninterruptible.
func (o *InProcess) Check(ctx context.Context, input string) (oracle.Verdict, error) {
	if err := ctx.Err(); err != nil {
		return oracle.Reject, err
	}
	if o.timeout <= 0 {
		return oracle.Protect(o.fn, input), nil
	}
	runCtx, cancel := context.WithTimeout(ctx, o.timeout)
	defer cancel()
	ch := make(chan oracle.Verdict, 1)
	go func() { ch <- oracle.Protect(o.fn, input) }()
	select {
	case v := <-ch:
		return v, nil
	case <-runCtx.Done():
		if err := ctx.Err(); err != nil {
			// The caller gave up: the query has no answer, so this is an
			// oracle-level error, mirroring oracle.Exec.
			return oracle.Reject, err
		}
		return oracle.Timeout, nil
	}
}

// builtin describes one stdlib-backed oracle before registration.
type builtin struct {
	name  string
	desc  string
	fn    func(string) bool
	seeds []string
}

// register enters one builtin into the oracle package's table.
func register(b builtin) {
	oracle.RegisterNamed(oracle.Registration{
		Kind:        oracle.SpecBuiltin,
		Name:        b.name,
		Description: b.desc,
		Seeds:       b.seeds,
		New: func(timeout time.Duration) oracle.CheckOracle {
			return NewInProcess(b.name, b.fn, timeout)
		},
	})
}

func init() {
	for _, b := range builtins() {
		register(b)
	}
	for _, p := range programs.All() {
		p := p
		oracle.RegisterNamed(oracle.Registration{
			Kind:        oracle.SpecProgram,
			Name:        p.Name(),
			Description: "simulated program with coverage instrumentation (§8.3 fuzzing evaluation)",
			Seeds:       p.Seeds(),
			New: func(timeout time.Duration) oracle.CheckOracle {
				return NewInProcess(p.Name(), func(s string) bool { return p.Run(s).OK }, timeout)
			},
		})
	}
	for _, t := range targets.All() {
		t := t
		oracle.RegisterNamed(oracle.Registration{
			Kind:        oracle.SpecTarget,
			Name:        t.Name,
			Description: "hand-written parser for a §8.2 evaluation language",
			Seeds:       append([]string(nil), t.DocSeeds...),
			New: func(timeout time.Duration) oracle.CheckOracle {
				return NewInProcess(t.Name, t.Oracle, timeout)
			},
		})
	}
}
