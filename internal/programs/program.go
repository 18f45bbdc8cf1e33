// Package programs provides the eight simulated programs of the paper's
// fuzzing evaluation (§8.3): sed, flex, grep, bison, an XML parser, and
// miniature Python, Ruby, and JavaScript front-ends.
//
// The paper runs real binaries and measures gcov line coverage. Here each
// program is a hand-written recursive-descent parser for a structurally
// faithful miniature of the real input language, instrumented with explicit
// coverage points: every distinct construct, branch, and error path the
// parser can take records a point, playing the role of a source line. The
// algorithms under evaluation are blackbox, so only the accept/reject
// boundary and the coverage signal matter — both are preserved.
package programs

import (
	"sort"
	"sync"
)

// Result is the outcome of one program execution.
type Result struct {
	// OK reports whether the input was accepted (no parse error) — the
	// membership oracle signal.
	OK bool
	// Points lists the coverage points hit during the run, sorted.
	Points []int
}

// Program is one simulated program under test.
type Program interface {
	// Name identifies the program ("sed", "flex", ...).
	Name() string
	// Run parses input, returning validity and coverage.
	Run(input string) Result
	// Seeds returns the program's bundled seed inputs Ein (small examples
	// "from documentation", §8.3).
	Seeds() []string
	// NumPoints returns the number of distinct coverage points registered
	// so far across all runs (the denominator analogue; Figure 7's
	// normalized metric makes it cancel).
	NumPoints() int
}

// All returns the eight programs in the paper's Figure 6 order.
func All() []Program {
	return []Program{Sed(), Flex(), Grep(), Bison(), XML(), Ruby(), Python(), JavaScript()}
}

// ByName returns the named program, or nil.
func ByName(name string) Program {
	for _, p := range All() {
		if p.Name() == name {
			return p
		}
	}
	return nil
}

// registry interns coverage-point labels to dense ids, shared by all runs
// of one program instance. Runs may execute concurrently (the parallel
// oracle fans program executions across workers), so the intern table is
// mutex-protected.
type registry struct {
	mu     sync.Mutex
	ids    map[string]int
	labels []string
}

func newRegistry() *registry { return &registry{ids: map[string]int{}} }

func (r *registry) id(label string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[label]; ok {
		return id
	}
	id := len(r.labels)
	r.ids[label] = id
	r.labels = append(r.labels, label)
	return id
}

func (r *registry) numPoints() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.labels)
}

// tracer records coverage for a single run.
type tracer struct {
	reg *registry
	set map[int]bool
}

func newTracer(reg *registry) *tracer {
	return &tracer{reg: reg, set: map[int]bool{}}
}

// hit records coverage point label.
func (t *tracer) hit(label string) {
	t.set[t.reg.id(label)] = true
}

// bucket records a size/depth-dependent coverage point. Real parsers have
// code that only runs at particular scales — recursion-depth guards, buffer
// growth, table rehashing — which gcov reports as distinct lines; bucketed
// points simulate those. Buckets: 0, 1, 2, 3, 4+, 8+, 16+.
func (t *tracer) bucket(label string, n int) {
	var suffix string
	switch {
	case n <= 3:
		suffix = []string{"0", "1", "2", "3"}[n]
	case n < 8:
		suffix = "4+"
	case n < 16:
		suffix = "8+"
	default:
		suffix = "16+"
	}
	t.hit(label + "." + suffix)
}

func (t *tracer) points() []int {
	out := make([]int, 0, len(t.set))
	for id := range t.set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// base implements Program around a traced parse function.
type base struct {
	name  string
	reg   *registry
	seeds []string
	parse func(t *tracer, input string) bool
}

// Name returns the program's name.
func (b *base) Name() string { return b.name }

// Seeds returns a copy of the program's bundled seed inputs.
func (b *base) Seeds() []string { return append([]string(nil), b.seeds...) }

// NumPoints returns the number of coverage points registered so far.
func (b *base) NumPoints() int { return b.reg.numPoints() }

// Run parses input with a fresh tracer and returns its verdict and the
// coverage points it hit.
func (b *base) Run(input string) Result {
	t := newTracer(b.reg)
	ok := b.parse(t, input)
	return Result{OK: ok, Points: t.points()}
}

// cursor is a shared scanning helper for the hand-written parsers.
type cursor struct {
	s string
	i int
	t *tracer
	// depth tracks construct nesting for bucketed coverage points.
	depth int
}

func (c *cursor) eof() bool { return c.i >= len(c.s) }

func (c *cursor) peek() byte {
	if c.eof() {
		return 0
	}
	return c.s[c.i]
}

func (c *cursor) peekAt(off int) byte {
	if c.i+off >= len(c.s) {
		return 0
	}
	return c.s[c.i+off]
}

func (c *cursor) eat(b byte) bool {
	if !c.eof() && c.s[c.i] == b {
		c.i++
		return true
	}
	return false
}

func (c *cursor) lit(prefix string) bool {
	if len(c.s)-c.i >= len(prefix) && c.s[c.i:c.i+len(prefix)] == prefix {
		c.i += len(prefix)
		return true
	}
	return false
}

// skip consumes bytes while pred holds and returns how many were consumed.
func (c *cursor) skip(pred func(byte) bool) int {
	n := 0
	for !c.eof() && pred(c.s[c.i]) {
		c.i++
		n++
	}
	return n
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLower(c byte) bool  { return c >= 'a' && c <= 'z' }
func isUpper(c byte) bool  { return c >= 'A' && c <= 'Z' }
func isLetter(c byte) bool { return isLower(c) || isUpper(c) || c == '_' }
func isAlnum(c byte) bool  { return isLetter(c) || isDigit(c) }
func isSpace(c byte) bool  { return c == ' ' || c == '\t' }
