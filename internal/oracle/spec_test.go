package oracle

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// registerSpecTestOracles installs fake named oracles for spec tests
// without importing the real registry (which would create an import
// cycle). The fake builtin accepts inputs containing "ok".
var registerSpecTestOracles = sync.OnceFunc(func() {
	RegisterNamed(Registration{
		Kind: SpecBuiltin, Name: "spec-test", Description: "spec test fake",
		Seeds: []string{"ok", "ok ok"},
		New: func(timeout time.Duration) CheckOracle {
			return Func(func(s string) bool { return strings.Contains(s, "ok") })
		},
	})
	RegisterNamed(Registration{
		Kind: SpecProgram, Name: "spec-test-prog", Description: "spec test fake program",
		New: func(timeout time.Duration) CheckOracle {
			return Func(func(s string) bool { return s == "prog" })
		},
	})
})

// TestSpecRoundTrip drives specs of every kind through the three
// surfaces that must agree: JSON encode/decode (HTTP and the on-disk
// store), the CLI flag grammar (ParseSpec/String), and Build.
func TestSpecRoundTrip(t *testing.T) {
	registerSpecTestOracles()
	cases := []struct {
		name   string
		spec   Spec
		flag   string // CLI form; "" = skip the flag leg (not representable)
		json   string // canonical wire form
		accept string // an input the built oracle accepts
		reject string
	}{
		{
			name:   "builtin",
			spec:   Spec{Type: SpecBuiltin, Name: "spec-test"},
			flag:   "builtin:spec-test",
			json:   `{"type":"builtin","name":"spec-test"}`,
			accept: "ok then", reject: "no",
		},
		{
			name:   "program",
			spec:   Spec{Type: SpecProgram, Name: "spec-test-prog"},
			flag:   "program:spec-test-prog",
			json:   `{"type":"program","name":"spec-test-prog"}`,
			accept: "prog", reject: "x",
		},
		{
			name:   "exec",
			spec:   Spec{Type: SpecExec, Argv: []string{"grep", "-q", "ok"}},
			flag:   "exec:grep -q ok",
			json:   `{"type":"exec","argv":["grep","-q","ok"]}`,
			accept: "ok", reject: "no",
		},
		{
			name: "exec with timeout",
			spec: Spec{Type: SpecExec, Argv: []string{"true"}, TimeoutMS: 1500},
			flag: "exec:true",
			json: `{"type":"exec","argv":["true"],"timeout_ms":1500}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// JSON leg: marshal is canonical, unmarshal inverts it.
			data, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != tc.json {
				t.Errorf("Marshal = %s, want %s", data, tc.json)
			}
			var back Spec
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, tc.spec) {
				t.Errorf("JSON round trip: %+v != %+v", back, tc.spec)
			}

			// CLI leg: String renders the flag form, ParseSpec inverts it.
			// TimeoutMS is not representable in the flag grammar, so compare
			// the flag-visible fields only.
			if tc.flag != "" {
				parsed, err := ParseSpec(tc.spec.String())
				if err != nil {
					t.Fatalf("ParseSpec(%q): %v", tc.spec.String(), err)
				}
				if tc.spec.String() != tc.flag {
					t.Errorf("String() = %q, want %q", tc.spec.String(), tc.flag)
				}
				if parsed.Type != tc.spec.Type || parsed.Name != tc.spec.Name ||
					!reflect.DeepEqual(parsed.Argv, tc.spec.Argv) {
					t.Errorf("CLI round trip: %+v != %+v", parsed, tc.spec)
				}
			}

			// Build leg: the spec resolves and the oracle answers.
			o, _, err := tc.spec.Build(BuildOptions{})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if tc.accept != "" {
				if v, err := o.Check(context.Background(), tc.accept); err != nil || v != Accept {
					t.Errorf("Check(%q) = %v, %v; want Accept", tc.accept, v, err)
				}
				if v, err := o.Check(context.Background(), tc.reject); err != nil || v == Accept {
					t.Errorf("Check(%q) = %v, %v; want a rejection", tc.reject, v, err)
				}
			}
		})
	}
}

// TestSpecJSONRejects checks the decoder rejects every key outside the
// canonical fields: a typo, and the retired pre-registry keys program,
// target and exec, alone or beside canonical ones.
func TestSpecJSONRejects(t *testing.T) {
	for _, in := range []string{
		`{"progarm":"sed"}`,                  // typo key
		`{"program":"sed","target":"xml"}`,   // retired keys
		`{"program":"sed","type":"exec"}`,    // retired key + canonical
		`{"exec":["true"],"argv":["false"]}`, // retired key + canonical argv
	} {
		var sp Spec
		if err := json.Unmarshal([]byte(in), &sp); err == nil {
			t.Errorf("Unmarshal(%s) succeeded as %+v, want error", in, sp)
		}
	}
}

// TestParseSpecForms covers the flag grammar corners: bare registered
// names, whitespace commands, and malformed specs.
func TestParseSpecForms(t *testing.T) {
	registerSpecTestOracles()
	good := []struct {
		in   string
		want Spec
	}{
		{"spec-test", Spec{Type: SpecBuiltin, Name: "spec-test"}},
		{"spec-test-prog", Spec{Type: SpecProgram, Name: "spec-test-prog"}},
		{"python3 -", Spec{Type: SpecExec, Argv: []string{"python3", "-"}}},
		{"exec:jq .", Spec{Type: SpecExec, Argv: []string{"jq", "."}}},
		{" builtin:spec-test ", Spec{Type: SpecBuiltin, Name: "spec-test"}},
	}
	for _, tc := range good {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{"", "no-such-oracle", "builtin:", "exec:", "builtin:two words"} {
		if sp, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) succeeded as %+v, want error", in, sp)
		}
	}
}

// TestSpecValidate covers the malformed-spec cases Build must refuse
// before consulting the registry, including fields the named oracle would
// ignore (err_substring on a builtin) and a negative timeout_ms.
func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Type: "weird", Name: "x"},
		{Type: SpecBuiltin},
		{Type: SpecBuiltin, Name: "json", Argv: []string{"x"}},
		{Type: SpecExec},
		{Type: SpecExec, Argv: []string{"true"}, Name: "x"},
		{Type: SpecBuiltin, Name: "spec-test", ErrSubstring: "error"},
		{Type: SpecExec, Argv: []string{"true"}, TimeoutMS: -1},
	}
	for _, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", sp)
		}
		if _, _, err := sp.Build(BuildOptions{}); err == nil {
			t.Errorf("Build(%+v) succeeded, want error", sp)
		}
	}
	if _, _, err := (Spec{Type: SpecBuiltin, Name: "definitely-unregistered"}).Build(BuildOptions{}); err == nil {
		t.Error("Build with unregistered name succeeded")
	}
}

// TestSpecBuildTimeouts checks TimeoutMS beats BuildOptions.DefaultTimeout
// and the default applies when the spec is silent.
func TestSpecBuildTimeouts(t *testing.T) {
	sp := Spec{Type: SpecExec, Argv: []string{"true"}, TimeoutMS: 250}
	o, _, err := sp.Build(BuildOptions{DefaultTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.(*Exec).Timeout; got != 250*time.Millisecond {
		t.Fatalf("spec timeout not honored: %v", got)
	}
	sp.TimeoutMS = 0
	o, _, err = sp.Build(BuildOptions{DefaultTimeout: 5 * time.Second, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ex := o.(*Exec)
	if ex.Timeout != 5*time.Second || ex.Workers != 3 {
		t.Fatalf("defaults not applied: timeout=%v workers=%d", ex.Timeout, ex.Workers)
	}
}
