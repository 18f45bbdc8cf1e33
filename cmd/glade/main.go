// Command glade synthesizes a context-free grammar for a program's input
// language from seed inputs and blackbox membership access, then optionally
// samples new inputs from it.
//
// The membership oracle is selected with one -oracle spec:
//
//	-oracle builtin:json           a registered in-process oracle over a
//	                               pure-Go target (json, json-strict, xml,
//	                               url, regexp, mime, csv, semver, gosrc)
//	-oracle program:sed            a built-in §8.3 simulated program
//	-oracle target:xml             a built-in §8.2 evaluation language
//	-oracle 'exec:prog args'       run an external command per query;
//	                               input on stdin, valid iff exit status 0
//
// Bare names resolve against the registry (builtin first, then program,
// then target), and any spec containing whitespace is treated as an exec
// command, so -oracle json and -oracle 'python3 -' both work.
//
// Seeds come from -seed flags (repeatable) and/or files named as positional
// arguments; with a named oracle, its bundled seeds are the default.
//
// Example:
//
//	glade -oracle target:xml -samples 3
//	glade -oracle 'python3 -c "import sys,json;json.load(sys.stdin)"' seeds/*.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/oracle"
	_ "glade/internal/oracle/registry" // named oracle specs resolve here
	"glade/internal/telemetry"
)

type seedList []string

func (s *seedList) String() string     { return strings.Join(*s, ",") }
func (s *seedList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var seeds seedList
	oracleFlag := flag.String("oracle", "", "membership oracle spec: builtin:NAME, program:NAME, target:NAME, or exec:CMD ARGS (bare names resolve against the registry)")
	flag.Var(&seeds, "seed", "seed input (repeatable)")
	samples := flag.Int("samples", 0, "print this many samples from the synthesized grammar")
	out := flag.String("o", "", "also write the grammar in cfg.Marshal format to this file")
	timeout := flag.Duration("timeout", 60*time.Second, "learning timeout")
	oracleTimeout := flag.Duration("oracle-timeout", 0, "per-query timeout; a hanging query is killed and treated as rejecting (0 = unbounded)")
	noPhase2 := flag.Bool("no-phase2", false, "disable recursive merging (phase 2)")
	noCharGen := flag.Bool("no-chargen", false, "disable character generalization")
	steps := flag.Bool("steps", false, "print every generalization step")
	traceOut := flag.String("trace", "", "write the learner's phase-span trace to this file as NDJSON (one span per line: name, seed, start, duration_ns, attrs)")
	workers := flag.Int("workers", 0, "concurrent oracle queries (0 or 1 = sequential; the grammar is identical either way)")
	retries := flag.Int("retries", 0, "per-query retry budget for transient oracle failures (fork failures, ENOMEM); verdicts are never retried, so the grammar is identical either way")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive transient oracle failures that open a circuit breaker (0 = no breaker)")
	flag.Parse()

	if *oracleFlag == "" {
		fatal(fmt.Errorf("no oracle: pass -oracle (e.g. -oracle builtin:json, -oracle target:xml, -oracle 'exec:python3 -')"))
	}
	spec, err := oracle.ParseSpec(*oracleFlag)
	if err != nil {
		fatal(err)
	}
	o, defaults, err := spec.Build(oracle.BuildOptions{
		Workers:        *workers,
		DefaultTimeout: *oracleTimeout,
		Retry:          oracle.RetryPolicy{MaxAttempts: *retries + 1},
		Breaker:        oracle.BreakerPolicy{Threshold: *breakerThreshold},
	})
	if err != nil {
		fatal(err)
	}
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		seeds = append(seeds, string(data))
	}
	if len(seeds) == 0 {
		seeds = defaults
	}
	if len(seeds) == 0 {
		fatal(fmt.Errorf("no seed inputs: pass -seed or seed files"))
	}

	opts := core.DefaultOptions()
	opts.Timeout = *timeout
	opts.Phase2 = !*noPhase2
	opts.CharGen = !*noCharGen
	opts.Workers = *workers
	if spec.IsExec() {
		// External processes are expensive; restrict character
		// generalization to bytes seen in the seeds plus common structure.
		opts.GenAlphabet = bytesets.OfString(strings.Join(seeds, "")).
			Union(bytesets.OfString(" \t\nabcxyz012<>()[]{}/\\\"'"))
	}
	if *steps {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		traceFile = f
		opts.Tracer = telemetry.NewNDJSONTracer(f)
	}

	// SIGINT/SIGTERM cancel the learn context: the run aborts within one
	// oracle wave instead of running to the timeout.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := core.Learn(ctx, seeds, o, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fatal(fmt.Errorf("interrupted: %w", err))
		}
		fatal(err)
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# phase trace written to %s\n", *traceOut)
	}
	fmt.Println(res.Grammar.Trim().String())
	if *out != "" {
		if err := os.WriteFile(*out, []byte(cfg.Marshal(res.Grammar)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "# grammar written to %s (load with -grammar in glade-fuzz)\n", *out)
	}
	s := res.Stats
	fmt.Fprintf(os.Stderr,
		"\n# %d seeds (%d skipped), %d candidates, %d checks, %d oracle queries, %d merges, %.2fs%s\n",
		s.Seeds, s.SeedsSkipped, s.Candidates, s.Checks, s.OracleQueries, s.Merged,
		s.Duration.Seconds(), timedOut(s.TimedOut))
	if *samples > 0 {
		sm := cfg.Compile(res.Grammar)
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		for i := 0; i < *samples; i++ {
			fmt.Printf("sample %d: %q\n", i+1, sm.Sample(rng))
		}
	}
}

func timedOut(b bool) string {
	if b {
		return " (timed out)"
	}
	return ""
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "glade:", err)
	os.Exit(1)
}
