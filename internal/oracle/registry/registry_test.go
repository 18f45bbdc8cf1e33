package registry

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"glade/internal/oracle"
)

// TestBuiltinSeedsAccepted checks the registration invariant every named
// oracle promises: each bundled seed is accepted by the oracle it seeds.
func TestBuiltinSeedsAccepted(t *testing.T) {
	for _, reg := range oracle.NamedOracles() {
		o := reg.New(0)
		for _, seed := range reg.Seeds {
			v, err := o.Check(context.Background(), seed)
			if err != nil {
				t.Errorf("%s:%s seed %q: %v", reg.Kind, reg.Name, seed, err)
				continue
			}
			if v != oracle.Accept {
				t.Errorf("%s:%s rejects its own seed %q (%v)", reg.Kind, reg.Name, seed, v)
			}
		}
	}
}

// TestBuiltinRejects spot-checks that each builtin actually discriminates:
// a clearly-invalid input per oracle must not be accepted.
func TestBuiltinRejects(t *testing.T) {
	rejects := map[string]string{
		"json":        `{"unterminated": `,
		"json-strict": `{"dup":1,"dup":2}`,
		"xml":         "<a><b></a></b>",
		"url":         "://missing-scheme",
		"regexp":      "a(b",
		"mime":        "not/a valid;;; media",
		"csv":         "\"unterminated,quote\nx",
		"semver":      "1.02.3",
		"gosrc":       "func main( {",
	}
	for name, bad := range rejects {
		reg, ok := oracle.LookupNamed(oracle.SpecBuiltin, name)
		if !ok {
			t.Errorf("builtin %q not registered", name)
			continue
		}
		v, err := reg.New(0).Check(context.Background(), bad)
		if err != nil {
			t.Errorf("builtin:%s on %q: %v", name, bad, err)
			continue
		}
		if v == oracle.Accept {
			t.Errorf("builtin:%s accepts invalid input %q", name, bad)
		}
	}
}

// TestJSONStrictDisagreesWithJSON pins the disagreement surface the
// differential campaign relies on: RFC 8259 accepts top-level scalars,
// the strict RFC 4627 validator does not.
func TestJSONStrictDisagreesWithJSON(t *testing.T) {
	lenient, _ := oracle.LookupNamed(oracle.SpecBuiltin, "json")
	strict, _ := oracle.LookupNamed(oracle.SpecBuiltin, "json-strict")
	lo, so := lenient.New(0), strict.New(0)
	disagree := []string{`"top-level string"`, `42`, `true`, `null`, `3.5`, `{"dup":1,"dup":2}`}
	for _, in := range disagree {
		lv, err1 := lo.Check(context.Background(), in)
		sv, err2 := so.Check(context.Background(), in)
		if err1 != nil || err2 != nil {
			t.Fatalf("%q: errors %v / %v", in, err1, err2)
		}
		if lv != oracle.Accept || sv == oracle.Accept {
			t.Errorf("%q: json=%v json-strict=%v, want Accept/reject split", in, lv, sv)
		}
	}
	agree := []string{`{"a": [1, 2]}`, `[]`, `{"nested": {"x": "y"}}`, `[1.5e3, false]`}
	for _, in := range agree {
		lv, _ := lo.Check(context.Background(), in)
		sv, _ := so.Check(context.Background(), in)
		if lv != oracle.Accept || sv != oracle.Accept {
			t.Errorf("%q: json=%v json-strict=%v, want both Accept", in, lv, sv)
		}
	}
}

// TestStrictJSONValidator exercises the recursive-descent validator's
// corners directly.
func TestStrictJSONValidator(t *testing.T) {
	valid := []string{
		`{}`, `[]`, `[null]`, `{"a": -0.5e+2}`, `["é", "\n\t\\\""]`,
		`{"a": {"b": [{"c": []}]}}`,
	}
	for _, in := range valid {
		if !strictJSONValid(in) {
			t.Errorf("strictJSONValid(%q) = false, want true", in)
		}
	}
	invalid := []string{
		``, `{`, `[1,]`, `{"a":}`, `{"a" 1}`, `[01]`, `[1.]`, `[.5]`, `[+1]`,
		`["\x"]`, `["\u00g9"]`, "[\"raw\tcontrol\"]", `[1] trailing`,
		`{"a":1}{"b":2}`, `[tru]`, strings.Repeat("[", 40) + strings.Repeat("]", 40),
	}
	for _, in := range invalid {
		if strictJSONValid(in) {
			t.Errorf("strictJSONValid(%q) = true, want false", in)
		}
	}
}

// TestSemverValidator exercises the semver validator's corners.
func TestSemverValidator(t *testing.T) {
	valid := []string{"0.0.0", "1.2.3", "10.20.30", "1.0.0-alpha", "1.0.0-alpha.1",
		"1.0.0-0.3.7", "1.0.0+build", "1.0.0-rc.1+build.5", "1.0.0--"}
	for _, in := range valid {
		if !semverValid(in) {
			t.Errorf("semverValid(%q) = false, want true", in)
		}
	}
	invalid := []string{"", "1", "1.2", "v1.2.3", "1.02.3", "1.2.3-", "1.2.3+",
		"1.2.3-01", "1.2.3-a..b", "1.2.3 ", "1.2.3.4", "-1.2.3"}
	for _, in := range invalid {
		if semverValid(in) {
			t.Errorf("semverValid(%q) = true, want false", in)
		}
	}
}

// TestInProcessPanicIsCrash checks the panic-recovery contract: a
// predicate that panics yields VerdictCrash, not a dead goroutine — on
// both the inline fast path and the goroutine (timeout) path.
func TestInProcessPanicIsCrash(t *testing.T) {
	boom := func(string) bool { panic("validator exploded") }
	for _, timeout := range []time.Duration{0, time.Second} {
		o := NewInProcess("boom", boom, timeout)
		v, err := o.Check(context.Background(), "x")
		if err != nil {
			t.Fatalf("timeout=%v: %v", timeout, err)
		}
		if v != oracle.Crash {
			t.Fatalf("timeout=%v: verdict %v, want Crash", timeout, v)
		}
	}
}

// TestInProcessTimeout checks a hanging predicate is abandoned with
// VerdictTimeout while the caller's own context stays intact.
func TestInProcessTimeout(t *testing.T) {
	hang := func(string) bool { time.Sleep(10 * time.Second); return true }
	o := NewInProcess("hang", hang, 50*time.Millisecond)
	start := time.Now()
	v, err := o.Check(context.Background(), "x")
	if err != nil {
		t.Fatal(err)
	}
	if v != oracle.Timeout {
		t.Fatalf("verdict %v, want Timeout", v)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout did not bound the query")
	}
}

// TestInProcessCallerCancellation checks cancelling the caller's context
// is an oracle error (aborts learning), never a verdict.
func TestInProcessCallerCancellation(t *testing.T) {
	hang := func(string) bool { time.Sleep(10 * time.Second); return true }
	o := NewInProcess("hang", hang, time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := o.Check(ctx, "x")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx deadline", err)
	}
}

// TestInProcessFastPath checks the no-timeout path answers inline —
// without a goroutine, so without allocating, even under a live
// cancellable context — and still observes a pre-cancelled context.
func TestInProcessFastPath(t *testing.T) {
	o := NewInProcess("even", func(s string) bool { return len(s)%2 == 0 }, 0)
	if v, err := o.Check(context.Background(), "ab"); err != nil || v != oracle.Accept {
		t.Fatalf("Check = %v, %v", v, err)
	}
	if v, err := o.Check(context.Background(), "a"); err != nil || v != oracle.Reject {
		t.Fatalf("Check(odd) = %v, %v", v, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if allocs := testing.AllocsPerRun(100, func() {
		if v, err := o.Check(ctx, "ab"); err != nil || v != oracle.Accept {
			t.Fatalf("Check under live ctx = %v, %v", v, err)
		}
	}); allocs != 0 {
		t.Fatalf("no-timeout Check under a cancellable ctx allocates %.1f times per query", allocs)
	}
	cancel()
	if _, err := o.Check(ctx, "ab"); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}
}

// TestRegistryCoversProgramsAndTargets checks init registered all three
// kinds so bare-name resolution and GET /v1/oracles see the full table.
func TestRegistryCoversProgramsAndTargets(t *testing.T) {
	kinds := map[string]int{}
	for _, reg := range oracle.NamedOracles() {
		kinds[reg.Kind]++
		if reg.Description == "" {
			t.Errorf("%s:%s has no description", reg.Kind, reg.Name)
		}
	}
	if kinds[oracle.SpecBuiltin] < 9 {
		t.Errorf("only %d builtins registered", kinds[oracle.SpecBuiltin])
	}
	if kinds[oracle.SpecProgram] < 8 {
		t.Errorf("only %d programs registered", kinds[oracle.SpecProgram])
	}
	if kinds[oracle.SpecTarget] < 4 {
		t.Errorf("only %d targets registered", kinds[oracle.SpecTarget])
	}
	for _, name := range []string{"json", "json-strict", "xml", "url", "regexp", "mime", "csv", "semver", "gosrc"} {
		if _, ok := oracle.LookupNamed(oracle.SpecBuiltin, name); !ok {
			t.Errorf("builtin %q missing", name)
		}
	}
}
