// Package glade is a Go implementation of GLADE, the program-input-grammar
// synthesis algorithm of Bastani, Sharma, Aiken & Liang, "Synthesizing
// Program Input Grammars" (PLDI 2017).
//
// Given a handful of valid example inputs and blackbox membership access to
// a program (run it; valid iff it does not report an error), LearnContext
// synthesizes a context-free grammar approximating the program's input
// language. The grammar can then drive a grammar-based fuzzer
// (NewGrammarFuzzer) that generates mostly-valid, structurally diverse
// inputs.
//
// The package is a facade over the implementation packages:
//
//	internal/core     the synthesis algorithm (phases 1, 2, char-gen)
//	internal/cfg      grammars and their compiled engine: recognition
//	                  ladder, parse trees, sampling
//	internal/oracle   membership oracles (functions, exec, retries, fault
//	                  injection), concurrent query waves (CheckAll) and
//	                  the named oracle-spec registry (OracleSpec)
//	internal/fuzz     naive / afl-style / grammar-based fuzzers
//	internal/telemetry metrics registry, phase tracing, Prometheus text
//
// # Contexts and verdicts
//
// The oracle contract is CheckOracle: Check(ctx, input) answers with a
// Verdict — VerdictAccept, VerdictReject, VerdictCrash (the target died on
// a signal), VerdictTimeout (the per-query deadline killed it) — and an
// error that means the oracle itself failed, which aborts learning instead
// of silently reading as a rejection. LearnContext threads the
// context through every phase: cancel it and learning returns within one
// oracle wave, wrapping ctx.Err().
//
// A minimal session:
//
//	o := glade.CheckOracleFunc(func(ctx context.Context, s string) (glade.Verdict, error) {
//		if isValidInput(s) {
//			return glade.VerdictAccept, nil
//		}
//		return glade.VerdictReject, nil
//	})
//	res, err := glade.LearnContext(ctx, []string{"<a>hi</a>"}, o, glade.DefaultOptions())
//	fmt.Println(res.Grammar)
//	fz := glade.NewGrammarFuzzer(res.Grammar, seeds)
//	input := fz.Next(rng)
//
// A plain boolean predicate becomes a CheckOracle through OracleFunc
// (true ↦ VerdictAccept, false ↦ VerdictReject, a panic ↦ VerdictCrash).
//
// Oracle queries dominate learning cost — every candidate generalization is
// one blackbox program run. Setting Options.Workers > 1 issues independent
// checks as concurrent waves (the oracle must then be safe for concurrent
// use); the synthesized grammar is byte-identical at any worker
// count:
//
//	opts := glade.DefaultOptions()
//	opts.Workers = 8
//	res, err := glade.LearnContext(ctx, seeds, o, opts)
package glade

import (
	"context"
	"io"

	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/fuzz"
	"glade/internal/oracle"
	_ "glade/internal/oracle/registry" // named oracle specs resolve here
	"glade/internal/telemetry"
)

// Verdict is the outcome of one membership query: the domain answer about
// the input. Oracle failures travel as errors next to the Verdict, never
// as a verdict.
type Verdict = oracle.Verdict

// The four verdicts. Only VerdictAccept means the input is in the
// language; VerdictCrash and VerdictTimeout are rejections carrying the
// extra signal fuzzing campaigns triage into their own buckets.
const (
	// VerdictReject: the target processed the input and reported it invalid.
	VerdictReject = oracle.Reject
	// VerdictAccept: the input is in the target's language.
	VerdictAccept = oracle.Accept
	// VerdictCrash: the target died on a signal rather than exiting.
	VerdictCrash = oracle.Crash
	// VerdictTimeout: the target exceeded the per-query deadline and was
	// killed.
	VerdictTimeout = oracle.Timeout
)

// CheckOracle is the oracle contract: Check(ctx, input) answers one
// membership query with a Verdict and an error (the error means the oracle
// itself failed — cancellation, a missing binary — and aborts learning).
type CheckOracle = oracle.CheckOracle

// CheckOracleFunc adapts a context-aware verdict function to a CheckOracle.
func CheckOracleFunc(f func(ctx context.Context, input string) (Verdict, error)) CheckOracle {
	return oracle.CheckFunc(f)
}

// CheckAll answers a wave of independent queries, fanning o.Check calls
// across at most workers goroutines (values below 2 run sequentially); o
// must be safe for concurrent use when workers > 1. LearnContext sends its
// waves the same way at width Options.Workers. On a non-nil error the
// verdict slice must be discarded.
func CheckAll(ctx context.Context, o CheckOracle, inputs []string, workers int) ([]Verdict, error) {
	return oracle.CheckAll(ctx, o, inputs, workers)
}

// OracleFunc adapts a plain predicate to a CheckOracle: true ↦
// VerdictAccept, false ↦ VerdictReject, and a panic ↦ VerdictCrash.
// Cancellation is observed between queries.
func OracleFunc(f func(string) bool) CheckOracle { return oracle.Func(f) }

// OracleSpec is the one oracle-construction description shared by the
// CLIs (-oracle flags), the HTTP API, and stored grammar metadata:
// {Type: "builtin"|"program"|"target", Name: ...} selects a registered
// in-process oracle, {Type: "exec", Argv: ...} an external command.
type OracleSpec = oracle.Spec

// OracleBuildOptions parameterizes BuildOracle; the zero value is usable.
type OracleBuildOptions = oracle.BuildOptions

// OracleRegistration describes one named oracle in the process-wide
// registry, as listed by RegisteredOracles.
type OracleRegistration = oracle.Registration

// ParseOracleSpec parses the CLI flag form of an OracleSpec:
// "builtin:json", "program:sed", "target:xml", "exec:python3 -", or a
// bare registered name.
func ParseOracleSpec(s string) (OracleSpec, error) { return oracle.ParseSpec(s) }

// BuildOracle resolves a spec into a CheckOracle plus the oracle's
// bundled seed inputs (nil for exec specs). Named specs resolve against
// the in-process registry — builtins over pure-Go targets
// (encoding/json, net/url, go/parser, ...), the paper's §8.3 programs,
// and the §8.2 evaluation languages — which importing this package
// populates.
func BuildOracle(sp OracleSpec, opt OracleBuildOptions) (CheckOracle, []string, error) {
	return sp.Build(opt)
}

// RegisteredOracles lists every named oracle the registry knows,
// builtins first, then programs, then targets.
func RegisteredOracles() []OracleRegistration { return oracle.NamedOracles() }

// ExecOracle runs a command per query, feeding the input on stdin; the
// input is valid when the command exits zero. This treats a real program
// binary exactly as the paper does. Set the returned Exec's Timeout to
// bound each run (a hanging target is killed with VerdictTimeout); its
// Check method reports signal deaths as VerdictCrash and a command that
// cannot run at all as an error.
func ExecOracle(argv ...string) *oracle.Exec { return &oracle.Exec{Argv: argv} }

// ResilientOracle wraps a CheckOracle with bounded retries for transient
// failures and a per-oracle circuit breaker. Verdicts are never retried —
// only errors are — so learning through it yields byte-identical grammars;
// permanent errors (unknown binary, bad spec) abort on the first attempt.
type ResilientOracle = oracle.Resilient

// RetryPolicy bounds the retry loop of a ResilientOracle: total attempts
// per query and the exponential full-jitter backoff between them.
type RetryPolicy = oracle.RetryPolicy

// BreakerPolicy configures a ResilientOracle's circuit breaker: the
// consecutive-failure threshold that opens it and the cooldown before a
// half-open probe.
type BreakerPolicy = oracle.BreakerPolicy

// ResilientOracleOptions configures NewResilientOracle; the zero value
// retries nothing and never opens the breaker.
type ResilientOracleOptions = oracle.ResilientOptions

// NewResilientOracle wraps inner with the retry/breaker layer. The same
// wrapper is what OracleBuildOptions.Retry/Breaker add inside BuildOracle.
func NewResilientOracle(inner CheckOracle, opt ResilientOracleOptions) *ResilientOracle {
	return oracle.NewResilient(inner, opt)
}

// FaultInjectingOracle deterministically injects transient errors,
// latency, hangs, and panics into an oracle — chaos testing for anything
// built on ResilientOracle.
type FaultInjectingOracle = oracle.FaultInjector

// FaultOptions sets the per-query fault rates (and seed) of a
// FaultInjectingOracle. The schedule is a pure function of (seed, input,
// per-input attempt), so runs are reproducible under any concurrency.
type FaultOptions = oracle.FaultOptions

// NewFaultInjectingOracle wraps inner with deterministic fault injection.
func NewFaultInjectingOracle(inner CheckOracle, opt FaultOptions) *FaultInjectingOracle {
	return oracle.NewFaultInjector(inner, opt)
}

// ErrOracleBreakerOpen is the sentinel inside errors returned while a
// ResilientOracle's circuit breaker is rejecting queries; test with
// errors.Is. It is itself a transient error.
var ErrOracleBreakerOpen = oracle.ErrBreakerOpen

// MarkTransientOracleError marks err as transient so a ResilientOracle
// will retry it. Use it in custom CheckOracle implementations for
// failures that are worth retrying (resource exhaustion, flaky IPC).
func MarkTransientOracleError(err error) error { return oracle.MarkTransient(err) }

// IsTransientOracleError reports whether err is worth retrying: marked
// transient, a breaker rejection, or a retryable syscall failure
// (EAGAIN, ENOMEM, ECONNRESET, ...). Context cancellation and deadline
// expiry are never transient.
func IsTransientOracleError(err error) bool { return oracle.IsTransient(err) }

// Grammar is a context-free grammar with byte-class terminals. Its String
// method renders BNF-like productions.
type Grammar = cfg.Grammar

// Options configures learning; start from DefaultOptions.
type Options = core.Options

// DefaultOptions returns the paper's configuration: both phases enabled and
// character generalization over printable ASCII.
func DefaultOptions() Options { return core.DefaultOptions() }

// Stats reports learner effort (queries, candidates, merges, time).
type Stats = core.Stats

// Progress is one phase-level progress event of a learning run; install a
// callback via Options.Progress to observe a run as it advances (the
// glade-serve daemon relays this stream to HTTP clients).
type Progress = core.Progress

// Result is the outcome of learning: the synthesized grammar, the
// intermediate regular expression, and statistics.
type Result = core.Result

// Span is one completed phase of a learning run: name, seed count, start
// time, wall duration, and phase-specific attributes (queries, cache hits,
// waves, speculation hit-rate). Spans of one run are contiguous — each
// starts exactly where the previous ended — so their durations sum to the
// run's wall time.
type Span = telemetry.Span

// Tracer receives the phase spans of a learning run; install one via
// Options.Tracer. Emit is called once per completed phase, from the
// learner's goroutine.
type Tracer = telemetry.Tracer

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc = telemetry.TracerFunc

// SpanRecorder is a Tracer that buffers spans in memory for later
// inspection (Spans, PhaseSummary). Safe for concurrent use.
type SpanRecorder = telemetry.SpanRecorder

// NewNDJSONTracer returns a Tracer that writes each span as one JSON
// object per line to w — the format `glade -trace out.ndjson` emits.
// Safe for concurrent use; callers own closing w.
func NewNDJSONTracer(w io.Writer) *telemetry.NDJSONTracer {
	return telemetry.NewNDJSONTracer(w)
}

// LearnContext synthesizes a grammar for the oracle's language from seed
// inputs. Every seed must be accepted by the oracle. Cancelling ctx aborts
// the run within one oracle wave, returning an error wrapping ctx.Err();
// an oracle error (as opposed to a rejection verdict) aborts the same way.
// Options.Timeout, by contrast, finalizes the language learned so far.
func LearnContext(ctx context.Context, seeds []string, o CheckOracle, opts Options) (*Result, error) {
	return core.Learn(ctx, seeds, o, opts)
}

// DefaultSampleDepth is the sampling depth budget used by the grammar
// fuzzer, and the initial MaxDepth of a CompiledGrammar.
const DefaultSampleDepth = cfg.DefaultSampleDepth

// CompiledGrammar is a Grammar lowered into flat index tables, the one
// engine behind membership (Accepts, AcceptsAll), parse trees (Parse) and
// sampling (Sample; uniform PCFG, §8.1). It is safe for concurrent use;
// the one mutable knob, the MaxDepth sampling budget, must be set before
// the value is shared across goroutines.
type CompiledGrammar = cfg.Compiled

// Compile lowers g into its compiled form. Compile once, share freely;
// membership is allocation-free at steady state.
func Compile(g *Grammar) *CompiledGrammar { return cfg.Compile(g) }

// Fuzzer generates test inputs, optionally steering on coverage feedback.
type Fuzzer = fuzz.Fuzzer

// NewGrammarFuzzer builds the paper's grammar-based fuzzer: parse a random
// seed, apply up to 50 random subtree resamplings, render.
func NewGrammarFuzzer(g *Grammar, seeds []string) *fuzz.Grammar {
	return fuzz.NewGrammar(g, seeds)
}

// NewNaiveFuzzer builds the paper's baseline fuzzer: random single-byte
// insertions and deletions on a random seed.
func NewNaiveFuzzer(seeds []string, alphabet []byte) *fuzz.Naive {
	return fuzz.NewNaive(seeds, alphabet)
}
