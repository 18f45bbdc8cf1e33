package oracle

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// accepts answers one query through Check, reading an oracle error as
// false: the boolean view several tests assert on.
func accepts(o CheckOracle, input string) bool {
	v, err := o.Check(context.Background(), input)
	return err == nil && v == Accept
}

func TestFunc(t *testing.T) {
	o := Func(func(s string) bool { return strings.HasPrefix(s, "ok") })
	v, err := o.Check(context.Background(), "ok then")
	if err != nil || v != Accept {
		t.Fatalf("Check = %v, %v, want accept", v, err)
	}
	if v, err := o.Check(context.Background(), "nope"); err != nil || v != Reject {
		t.Fatalf("Check = %v, %v, want reject", v, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := o.Check(ctx, "ok"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Check on cancelled ctx err = %v, want context.Canceled", err)
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{Accept: "accept", Reject: "reject", Crash: "crash", Timeout: "timeout"}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
	if !Accept.Accepted() || Reject.Accepted() || Crash.Accepted() || Timeout.Accepted() {
		t.Error("Accepted() wrong")
	}
}

func TestExecTrueFalse(t *testing.T) {
	if testing.Short() {
		t.Skip("exec oracle spawns processes")
	}
	yes := &Exec{Argv: []string{"true"}}
	no := &Exec{Argv: []string{"false"}}
	if !accepts(yes, "anything") {
		t.Fatal("true command rejected")
	}
	if accepts(no, "anything") {
		t.Fatal("false command accepted")
	}
	empty := &Exec{}
	if accepts(empty, "x") {
		t.Fatal("empty argv accepted")
	}
	// An empty argv is an oracle error, not a rejection.
	if _, err := empty.Check(context.Background(), "x"); err == nil {
		t.Fatal("empty argv Check returned no error")
	}
}

func TestExecReadsStdin(t *testing.T) {
	if testing.Short() {
		t.Skip("exec oracle spawns processes")
	}
	// grep -q ok: exit 0 iff stdin contains "ok".
	o := &Exec{Argv: []string{"grep", "-q", "ok"}}
	if !accepts(o, "this is ok") {
		t.Fatal("grep oracle rejected matching input")
	}
	if accepts(o, "nothing here") {
		t.Fatal("grep oracle accepted non-matching input")
	}
}

func TestExecTimeoutKillsHangingTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("exec oracle spawns processes")
	}
	// Without a timeout this would block for 30 s; the deadline must kill
	// the process and report a Timeout verdict quickly.
	o := &Exec{Argv: []string{"sleep", "30"}, Timeout: 100 * time.Millisecond}
	start := time.Now()
	v, err := o.Check(context.Background(), "x")
	if err != nil || v != Timeout {
		t.Fatalf("timed-out run = %v, %v, want timeout verdict", v, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout did not bound the run: took %v", elapsed)
	}
	// A fast run under the same timeout is unaffected.
	fast := &Exec{Argv: []string{"true"}, Timeout: 5 * time.Second}
	if !accepts(fast, "x") {
		t.Fatal("fast run under timeout rejected")
	}
}

func TestExecTimeoutInBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("exec oracle spawns processes")
	}
	o := &Exec{Argv: []string{"sh", "-c", "grep -q ok || sleep 30"}, Timeout: 150 * time.Millisecond, Workers: 4}
	got, err := o.CheckBatch(context.Background(), []string{"ok", "hang", "ok", "hang"})
	if err != nil {
		t.Fatalf("CheckBatch: %v", err)
	}
	want := []Verdict{Accept, Timeout, Accept, Timeout}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("batch verdict %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestExecCheckVerdicts pins the canonical verdict mapping of Exec.Check:
// exit 0 accepts, nonzero rejects, signal death crashes, deadline kill
// times out, and the error-substring convention rejects.
func TestExecCheckVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("exec oracle spawns processes")
	}
	cases := []struct {
		name string
		o    *Exec
		want Verdict
	}{
		{"accepted", &Exec{Argv: []string{"true"}}, Accept},
		{"rejected", &Exec{Argv: []string{"false"}}, Reject},
		{"timeout", &Exec{Argv: []string{"sleep", "30"}, Timeout: 100 * time.Millisecond}, Timeout},
		// A process killing itself with SIGSEGV is a crash, not a plain
		// rejection — and not a timeout, since the deadline never fired.
		{"crash", &Exec{Argv: []string{"sh", "-c", "kill -SEGV $$"}, Timeout: 10 * time.Second}, Crash},
		{"err substring", &Exec{Argv: []string{"sh", "-c", "echo parse error >&2"}, ErrSubstring: "error"}, Reject},
	}
	for _, tc := range cases {
		got, err := tc.o.Check(context.Background(), "x")
		if err != nil {
			t.Errorf("%s: Check error: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: Check = %v, want %v", tc.name, got, tc.want)
		}
	}
	// A crash is not an acceptance.
	if accepts(&Exec{Argv: []string{"sh", "-c", "kill -SEGV $$"}}, "x") {
		t.Error("crashed run reported accepted")
	}
}

// TestExecMissingBinaryIsError is the heart of the oracle contract: an oracle
// that cannot run at all must answer with an error, never a silent Reject.
func TestExecMissingBinaryIsError(t *testing.T) {
	if testing.Short() {
		t.Skip("exec oracle spawns processes")
	}
	o := &Exec{Argv: []string{"/no/such/binary-glade-test"}}
	v, err := o.Check(context.Background(), "x")
	if err == nil {
		t.Fatalf("missing binary answered %v with no error", v)
	}
	// Read as a boolean, the error is not an acceptance.
	if accepts(o, "x") {
		t.Fatal("missing binary reported accepted")
	}
}

// TestExecCallerCancellation distinguishes the caller giving up (an error)
// from the per-query deadline firing (a Timeout verdict).
func TestExecCallerCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("exec oracle spawns processes")
	}
	o := &Exec{Argv: []string{"sleep", "30"}, Timeout: 10 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := o.Check(ctx, "x")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller-cancelled Check err = %v, want ctx deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation did not bound the run: took %v", elapsed)
	}
}
