package registry

import (
	"context"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"glade/internal/oracle"
)

// TestMain lets the test binary serve as an exec oracle: run as
// "<binary> stdin-oracle NAME", it answers one stdin query for the
// builtin NAME through its exit status, like any external membership
// oracle.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "stdin-oracle" {
		os.Exit(stdinOracle(os.Args[2]))
	}
	os.Exit(m.Run())
}

// stdinOracle checks stdin against the named builtin: exit 0 accepts,
// 1 rejects, 2 reports a failure to answer.
func stdinOracle(name string) int {
	reg, ok := oracle.LookupNamed(oracle.SpecBuiltin, name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown builtin oracle %q\n", name)
		return 2
	}
	input, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	v, err := reg.New(0, 1).Check(context.Background(), string(input))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if v != oracle.Accept {
		return 1
	}
	return 0
}

// TestBuiltinFasterThanExec holds the registry to its reason for being:
// builtin:json answers at least 50x faster than the same validator behind
// oracle.Exec, where every query pays a fork/exec. The exec side is this
// test binary in its stdin-oracle mode, so both sides run the identical
// validator and the gap is process overhead alone. Both run at Workers=1.
func TestBuiltinFasterThanExec(t *testing.T) {
	// Without this a race-built child sleeps for a second at exit.
	t.Setenv("GORACE", "atexit_sleep_ms=0")
	reg, ok := oracle.LookupNamed(oracle.SpecBuiltin, "json")
	if !ok {
		t.Fatal("builtin json not registered")
	}
	builtin := reg.New(0, 1)
	ex := &oracle.Exec{Argv: []string{os.Args[0], "stdin-oracle", "json"}, Workers: 1}
	ctx := context.Background()

	// The seeds and one truncation of each, so both verdicts occur.
	var inputs []string
	for _, s := range reg.Seeds {
		inputs = append(inputs, s, s[:len(s)-1])
	}
	for _, in := range inputs {
		bv, err := builtin.Check(ctx, in)
		if err != nil {
			t.Fatalf("builtin on %q: %v", in, err)
		}
		ev, err := ex.Check(ctx, in)
		if err != nil {
			t.Fatalf("exec on %q: %v", in, err)
		}
		if bv != ev {
			t.Fatalf("%q: builtin says %v, exec says %v", in, bv, ev)
		}
	}

	perQuery := func(o oracle.CheckOracle, n int) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := o.Check(ctx, inputs[i%len(inputs)]); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start).Seconds() / float64(n)
	}
	b := perQuery(builtin, 2000)
	e := perQuery(ex, 20)
	ratio := e / b
	t.Logf("builtin %.2f µs/query, exec %.2f ms/query, ratio %.0fx", b*1e6, e*1e3, ratio)
	if ratio < 50 {
		t.Fatalf("builtin is only %.1fx faster than exec, want at least 50x", ratio)
	}
}
