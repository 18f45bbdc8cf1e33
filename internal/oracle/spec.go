package oracle

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// The spec types. A Spec names its oracle with exactly one of these in
// Type; the three named kinds resolve through the process-wide
// registration table (populated by internal/oracle/registry), while exec
// builds an external-command oracle from Argv.
const (
	// SpecBuiltin selects a registered in-process oracle over a pure-Go
	// target (encoding/json, net/url, go/parser, ...). Builtins run inside
	// the server process, so they need no exec gating.
	SpecBuiltin = "builtin"
	// SpecProgram selects a §8.3 simulated program (sed, flex, xml, ...).
	SpecProgram = "program"
	// SpecTarget selects a §8.2 evaluation language (url, grep, lisp, xml).
	SpecTarget = "target"
	// SpecExec selects an external command run per query: input on stdin,
	// valid iff exit status 0. Exec specs execute caller-chosen argv, so
	// services gate them behind explicit operator opt-in.
	SpecExec = "exec"
)

// Spec is the one oracle-construction description shared by every
// consumer: the four CLIs (-oracle), the glade facade (OracleSpec), the
// HTTP API (POST /v1/jobs, /v1/campaigns), and stored grammar metadata.
// Exactly one oracle is named: Type selects the kind, Name the registered
// oracle for the three named kinds, Argv the command for exec.
//
// The JSON form is {"type": "builtin", "name": "json"} and so on; any
// other key fails to decode.
type Spec struct {
	// Type is one of SpecBuiltin, SpecProgram, SpecTarget, SpecExec.
	Type string `json:"type,omitempty"`
	// Name is the registered oracle name for the named kinds.
	Name string `json:"name,omitempty"`
	// Argv is the exec command, e.g. {"python3", "-"}.
	Argv []string `json:"argv,omitempty"`
	// ErrSubstring marks exec inputs invalid when stderr contains it even
	// on exit status 0 (the paper's "program prints an error" signal).
	// Only exec specs may set it.
	ErrSubstring string `json:"err_substring,omitempty"`
	// TimeoutMS bounds each query; zero uses the builder's default, and a
	// negative value is invalid. For exec oracles a hanging run is killed
	// (VerdictTimeout); builtins get the same guard from the registry
	// wrapper.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// UnmarshalJSON decodes the canonical fields and rejects unknown keys, so
// a mistyped key fails even for callers decoding with plain json.Unmarshal
// (stored metadata, library users).
func (sp *Spec) UnmarshalJSON(data []byte) error {
	type plain Spec
	var p plain
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return err
	}
	*sp = Spec(p)
	return nil
}

// Validate reports whether the spec names exactly one buildable oracle and
// sets only fields that oracle uses: a named kind carries no argv and no
// err_substring, exec carries no name, and timeout_ms is not negative.
// Rejecting such a field rather than ignoring it keeps a client's setting
// from being silently dropped. Validate does not consult the registration
// table — an unknown name fails at Build, a malformed spec fails here.
func (sp Spec) Validate() error {
	switch sp.Type {
	case SpecBuiltin, SpecProgram, SpecTarget:
		if sp.Name == "" {
			return fmt.Errorf("oracle spec: %s oracle needs a name", sp.Type)
		}
		if len(sp.Argv) > 0 {
			return fmt.Errorf("oracle spec: %s oracle cannot carry argv", sp.Type)
		}
		if sp.ErrSubstring != "" {
			return fmt.Errorf("oracle spec: %s oracle cannot carry err_substring", sp.Type)
		}
	case SpecExec:
		if len(sp.Argv) == 0 {
			return fmt.Errorf("oracle spec: exec oracle needs argv")
		}
		if sp.Name != "" {
			return fmt.Errorf("oracle spec: exec oracle cannot carry a name")
		}
	case "":
		return fmt.Errorf("oracle spec is empty: set type to one of builtin, program, target, exec")
	default:
		return fmt.Errorf("oracle spec: unknown type %q (want builtin, program, target, or exec)", sp.Type)
	}
	if sp.TimeoutMS < 0 {
		return fmt.Errorf("oracle spec: timeout_ms must not be negative (got %d)", sp.TimeoutMS)
	}
	return nil
}

// IsExec reports whether the spec runs an external command — the property
// services gate behind -allow-exec. Every named kind runs in-process.
func (sp Spec) IsExec() bool { return sp.Type == SpecExec }

// String renders the spec in its CLI flag form: "builtin:json",
// "program:sed", "target:xml", "exec:python3 -", or "none" for the zero
// Spec. ParseSpec inverts it.
func (sp Spec) String() string {
	switch sp.Type {
	case SpecBuiltin, SpecProgram, SpecTarget:
		return sp.Type + ":" + sp.Name
	case SpecExec:
		return SpecExec + ":" + strings.Join(sp.Argv, " ")
	}
	return "none"
}

// ParseSpec parses the CLI flag form of a Spec:
//
//	builtin:json          a registered in-process oracle
//	program:sed           a §8.3 simulated program
//	target:xml            a §8.2 evaluation language
//	exec:python3 -        an external command (argv split on whitespace)
//	json                  bare names resolve against the registration
//	                      table (builtin first, then program, then target)
//	python3 -c '...'      anything else containing whitespace is an exec
//	                      command (single-word commands need the exec: prefix)
func ParseSpec(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Spec{}, fmt.Errorf("empty oracle spec")
	}
	if kind, rest, ok := strings.Cut(s, ":"); ok {
		switch kind {
		case SpecBuiltin, SpecProgram, SpecTarget:
			if rest == "" || strings.ContainsAny(rest, " \t") {
				return Spec{}, fmt.Errorf("oracle spec %q: want %s:NAME", s, kind)
			}
			return Spec{Type: kind, Name: rest}, nil
		case SpecExec:
			argv := strings.Fields(rest)
			if len(argv) == 0 {
				return Spec{}, fmt.Errorf("oracle spec %q: want exec:CMD [ARGS...]", s)
			}
			return Spec{Type: SpecExec, Argv: argv}, nil
		}
	}
	if strings.ContainsAny(s, " \t") {
		return Spec{Type: SpecExec, Argv: strings.Fields(s)}, nil
	}
	for _, kind := range []string{SpecBuiltin, SpecProgram, SpecTarget} {
		if _, ok := LookupNamed(kind, s); ok {
			return Spec{Type: kind, Name: s}, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown oracle %q: use builtin:NAME, program:NAME, target:NAME, or exec:CMD (GET /v1/oracles or the README table list the names)", s)
}

// BuildOptions parameterizes Spec.Build with the caller's environment;
// the zero value is usable.
type BuildOptions struct {
	// Workers bounds the concurrent bulk path of oracles that own one
	// (exec subprocess fan-out). Values below 1 mean sequential.
	Workers int
	// DefaultTimeout bounds each query when the spec sets no TimeoutMS;
	// zero leaves queries bounded only by the caller's context.
	DefaultTimeout time.Duration
	// Retry, when MaxAttempts > 1, wraps the built oracle in a Resilient
	// layer retrying transient errors with full-jitter backoff.
	Retry RetryPolicy
	// Breaker, when Threshold > 0, adds a per-oracle circuit breaker to
	// the Resilient layer (implied even if Retry is zero).
	Breaker BreakerPolicy
	// ResilientMetrics, when non-nil, instruments the Resilient layer.
	ResilientMetrics *ResilientMetrics
}

// resilient reports whether the options ask for the Resilient wrapper.
func (opt BuildOptions) resilient() bool {
	return opt.Retry.MaxAttempts > 1 || opt.Breaker.Threshold > 0
}

// wrap applies the Resilient layer to a freshly built oracle when the
// options ask for one.
func (opt BuildOptions) wrap(o CheckOracle) CheckOracle {
	if !opt.resilient() {
		return o
	}
	return NewResilient(o, ResilientOptions{
		Retry:   opt.Retry,
		Breaker: opt.Breaker,
		Workers: opt.Workers,
		Metrics: opt.ResilientMetrics,
	})
}

// Build resolves the spec into a CheckOracle plus the oracle's bundled
// seed inputs (nil for exec oracles). Named kinds resolve through the
// registration table — import internal/oracle/registry (the facade and
// the CLIs do) to have the builtin, program, and target oracles
// registered. Build is cheap; callers rebuild freely rather than holding
// oracles as live resources.
func (sp Spec) Build(opt BuildOptions) (CheckOracle, []string, error) {
	if err := sp.Validate(); err != nil {
		return nil, nil, err
	}
	timeout := opt.DefaultTimeout
	if sp.TimeoutMS > 0 {
		timeout = time.Duration(sp.TimeoutMS) * time.Millisecond
	}
	if sp.Type == SpecExec {
		return opt.wrap(&Exec{Argv: sp.Argv, ErrSubstring: sp.ErrSubstring, Workers: opt.Workers, Timeout: timeout}), nil, nil
	}
	reg, ok := LookupNamed(sp.Type, sp.Name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown %s oracle %q%s", sp.Type, sp.Name, nameHint(sp.Type))
	}
	return opt.wrap(reg.New(timeout)), reg.Seeds, nil
}

// Registration describes one named oracle in the process-wide table:
// which kind and name a Spec selects it by, a human-readable description
// (GET /v1/oracles, README tables), bundled seed inputs for learning
// without explicit seeds, and the constructor Build calls.
type Registration struct {
	// Kind is SpecBuiltin, SpecProgram, or SpecTarget.
	Kind string
	// Name is the spec name within the kind ("json", "sed", ...).
	Name string
	// Description is one human-readable line about the oracle.
	Description string
	// Seeds are bundled example inputs, all accepted by the oracle; they
	// default a learn request's seed set.
	Seeds []string
	// New builds the oracle; timeout bounds each query (zero =
	// unbounded). Named oracles run in-process and own no bulk path, so
	// their concurrency comes from the caller's pool.
	New func(timeout time.Duration) CheckOracle
}

// named is the registration table; the registry package fills it at init.
var (
	namedMu sync.RWMutex
	named   = map[string]Registration{}
)

func namedKey(kind, name string) string { return kind + ":" + name }

// RegisterNamed adds one named oracle to the table Spec.Build resolves
// against. It panics on a duplicate (kind, name) or an invalid
// registration — registration is init-time wiring, not input handling.
func RegisterNamed(r Registration) {
	if r.Name == "" || r.New == nil {
		panic("oracle: RegisterNamed with empty name or nil constructor")
	}
	switch r.Kind {
	case SpecBuiltin, SpecProgram, SpecTarget:
	default:
		panic("oracle: RegisterNamed with kind " + r.Kind)
	}
	key := namedKey(r.Kind, r.Name)
	namedMu.Lock()
	defer namedMu.Unlock()
	if _, dup := named[key]; dup {
		panic("oracle: duplicate registration " + key)
	}
	named[key] = r
}

// LookupNamed returns the registration a (kind, name) pair resolves to.
func LookupNamed(kind, name string) (Registration, bool) {
	namedMu.RLock()
	defer namedMu.RUnlock()
	r, ok := named[namedKey(kind, name)]
	return r, ok
}

// NamedOracles lists every registration, builtins first, then programs,
// then targets, each kind sorted by name — the order GET /v1/oracles and
// documentation tables present.
func NamedOracles() []Registration {
	namedMu.RLock()
	out := make([]Registration, 0, len(named))
	for _, r := range named {
		out = append(out, r)
	}
	namedMu.RUnlock()
	rank := map[string]int{SpecBuiltin: 0, SpecProgram: 1, SpecTarget: 2}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return rank[out[i].Kind] < rank[out[j].Kind]
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// nameHint lists the registered names of a kind for error messages.
func nameHint(kind string) string {
	var names []string
	for _, r := range NamedOracles() {
		if r.Kind == kind {
			names = append(names, r.Name)
		}
	}
	if len(names) == 0 {
		return " (none registered: import glade/internal/oracle/registry)"
	}
	return " (registered: " + strings.Join(names, ", ") + ")"
}
