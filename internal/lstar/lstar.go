// Package lstar implements Angluin's L-Star algorithm for learning regular
// languages from membership and equivalence queries, in the variant the
// paper evaluates (§8.2): the equivalence oracle is approximated by random
// sampling — positive examples, random strings, and samples from the
// current hypothesis — accepting the hypothesis when no counterexample is
// found among a fixed number of samples.
package lstar

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"glade/internal/automata"
)

// Teacher bundles what L-Star may ask about the target language.
type Teacher struct {
	// Oracle answers membership queries.
	Oracle func(string) bool
	// Alphabet is the byte alphabet the learner works over.
	Alphabet []byte
	// Positives is a pool of known-valid strings (the seed inputs Ein);
	// the sampling equivalence oracle checks the hypothesis accepts them.
	Positives []string
	// SamplePositive, when non-nil, draws additional valid strings for the
	// equivalence oracle (the paper samples from the target distribution).
	SamplePositive func(rng *rand.Rand) string
	// EquivSamples is the number of samples per equivalence query before
	// the hypothesis is accepted (the paper uses 50).
	EquivSamples int
	// MaxSampleLen bounds hypothesis samples and random strings.
	MaxSampleLen int
	// Timeout bounds total learning time; zero means unbounded.
	Timeout time.Duration
	// Rng drives all sampling.
	Rng *rand.Rand
}

// Stats reports learner effort.
type Stats struct {
	MembershipQueries int
	EquivalenceChecks int
	Counterexamples   int
	States            int
	TimedOut          bool
	Duration          time.Duration
}

// Learn runs L-Star and returns the final hypothesis DFA. On timeout it
// returns the last hypothesis built (or a single-state DFA when none was
// completed) with Stats.TimedOut set.
func Learn(t Teacher) (*automata.DFA, Stats) {
	if t.EquivSamples <= 0 {
		t.EquivSamples = 50
	}
	if t.MaxSampleLen <= 0 {
		t.MaxSampleLen = 40
	}
	if t.Rng == nil {
		t.Rng = rand.New(rand.NewSource(1))
	}
	l := &learner{
		t:     t,
		memo:  map[string]bool{},
		rows:  map[string][]bool{},
		start: time.Now(),
	}
	if t.Timeout > 0 {
		l.deadline = l.start.Add(t.Timeout)
	}
	l.s = []string{""}
	l.e = []string{""}

	var hypothesis *automata.DFA
	for {
		if !l.makeClosedConsistent() {
			break // timed out
		}
		hypothesis = l.buildDFA()
		l.stats.EquivalenceChecks++
		cex, found := l.findCounterexample(hypothesis)
		if !found {
			break
		}
		l.stats.Counterexamples++
		// Angluin: add all prefixes of the counterexample to S.
		for i := 1; i <= len(cex); i++ {
			l.addPrefix(cex[:i])
		}
		if l.expired() {
			break
		}
	}
	if hypothesis == nil {
		hypothesis = l.buildDFA()
	}
	l.stats.States = hypothesis.NumStates()
	l.stats.Duration = time.Since(l.start)
	return hypothesis, l.stats
}

type learner struct {
	t        Teacher
	s        []string // prefix set S (kept prefix-closed, sorted for determinism)
	e        []string // suffix set E
	memo     map[string]bool
	rows     map[string][]bool // cached row vectors, invalidated when E grows
	stats    Stats
	start    time.Time
	deadline time.Time
}

func (l *learner) expired() bool {
	if l.deadline.IsZero() {
		return false
	}
	if time.Now().After(l.deadline) {
		l.stats.TimedOut = true
		return true
	}
	return false
}

func (l *learner) member(s string) bool {
	if v, ok := l.memo[s]; ok {
		return v
	}
	l.stats.MembershipQueries++
	v := l.t.Oracle(s)
	l.memo[s] = v
	return v
}

// row returns the observation-table row of prefix u over the current E.
func (l *learner) row(u string) []bool {
	if r, ok := l.rows[u]; ok && len(r) == len(l.e) {
		return r
	}
	r := make([]bool, len(l.e))
	for i, e := range l.e {
		r[i] = l.member(u + e)
	}
	l.rows[u] = r
	return r
}

func rowKey(r []bool) string {
	var b strings.Builder
	for _, v := range r {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func (l *learner) addPrefix(u string) {
	for _, s := range l.s {
		if s == u {
			return
		}
	}
	l.s = append(l.s, u)
	sort.Strings(l.s)
}

func (l *learner) addSuffix(e string) {
	for _, x := range l.e {
		if x == e {
			return
		}
	}
	l.e = append(l.e, e)
	l.rows = map[string][]bool{} // row width changed
}

// makeClosedConsistent drives the table to a closed and consistent state.
// It returns false if the deadline expired.
func (l *learner) makeClosedConsistent() bool {
	for {
		if l.expired() {
			return false
		}
		// Closedness: every one-letter extension's row must appear among
		// the rows of S.
		sRows := map[string]bool{}
		for _, s := range l.s {
			sRows[rowKey(l.row(s))] = true
		}
		closedViolation := ""
		for _, s := range l.s {
			for _, a := range l.t.Alphabet {
				ext := s + string(a)
				if !sRows[rowKey(l.row(ext))] {
					closedViolation = ext
					break
				}
			}
			if closedViolation != "" {
				break
			}
		}
		if closedViolation != "" {
			l.addPrefix(closedViolation)
			continue
		}
		// Consistency: equal rows must stay equal under every extension.
		inconsistency := ""
		for i := 0; i < len(l.s) && inconsistency == ""; i++ {
			for j := i + 1; j < len(l.s) && inconsistency == ""; j++ {
				if rowKey(l.row(l.s[i])) != rowKey(l.row(l.s[j])) {
					continue
				}
				for _, a := range l.t.Alphabet {
					ri := l.row(l.s[i] + string(a))
					rj := l.row(l.s[j] + string(a))
					for k := range ri {
						if ri[k] != rj[k] {
							inconsistency = string(a) + l.e[k]
							break
						}
					}
					if inconsistency != "" {
						break
					}
				}
			}
		}
		if inconsistency != "" {
			l.addSuffix(inconsistency)
			continue
		}
		return true
	}
}

// buildDFA constructs the hypothesis from the closed, consistent table.
func (l *learner) buildDFA() *automata.DFA {
	// Distinct rows of S become states; the empty prefix's row is start.
	stateOf := map[string]int{}
	var reps []string
	for _, s := range l.s {
		k := rowKey(l.row(s))
		if _, ok := stateOf[k]; !ok {
			stateOf[k] = len(reps)
			reps = append(reps, s)
		}
	}
	d := &automata.DFA{Alphabet: append([]byte(nil), l.t.Alphabet...)}
	d.Delta = make([][]int, len(reps))
	d.Accept = make([]bool, len(reps))
	for id, rep := range reps {
		d.Accept[id] = l.row(rep)[indexOf(l.e, "")]
		row := make([]int, len(l.t.Alphabet))
		for ai, a := range l.t.Alphabet {
			row[ai] = stateOf[rowKey(l.row(rep+string(a)))]
		}
		d.Delta[id] = row
	}
	// Reorder so the start state (row of "") is state 0.
	startID := stateOf[rowKey(l.row(""))]
	if startID != 0 {
		d = swapStates(d, 0, startID)
	}
	return d
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	panic("lstar: empty suffix missing from E")
}

func swapStates(d *automata.DFA, a, b int) *automata.DFA {
	m := func(s int) int {
		switch s {
		case a:
			return b
		case b:
			return a
		}
		return s
	}
	out := &automata.DFA{Alphabet: d.Alphabet}
	out.Delta = make([][]int, len(d.Delta))
	out.Accept = make([]bool, len(d.Accept))
	for s := range d.Delta {
		row := make([]int, len(d.Delta[s]))
		for i, t := range d.Delta[m(s)] {
			row[i] = m(t)
		}
		out.Delta[s] = row
		out.Accept[s] = d.Accept[m(s)]
	}
	return out
}

// findCounterexample implements the sampling equivalence oracle: it draws
// EquivSamples strings — rotating through the positive pool, the positive
// sampler, random strings, and hypothesis samples — and returns the first
// disagreement between the hypothesis and the membership oracle.
func (l *learner) findCounterexample(d *automata.DFA) (string, bool) {
	for k := 0; k < l.t.EquivSamples; k++ {
		if l.expired() {
			return "", false
		}
		var candidate string
		switch k % 4 {
		case 0:
			if len(l.t.Positives) > 0 {
				candidate = l.t.Positives[k/4%len(l.t.Positives)]
			} else if l.t.SamplePositive != nil {
				candidate = l.t.SamplePositive(l.t.Rng)
			}
		case 1:
			if l.t.SamplePositive != nil {
				candidate = l.t.SamplePositive(l.t.Rng)
			} else if len(l.t.Positives) > 0 {
				candidate = l.t.Positives[l.t.Rng.Intn(len(l.t.Positives))]
			}
		case 2:
			candidate = l.randomString()
		default:
			if s, ok := automata.Sample(d, l.t.Rng, l.t.MaxSampleLen, 0.3); ok {
				candidate = s
			} else {
				candidate = l.randomString()
			}
		}
		if d.Accepts(candidate) != l.member(candidate) {
			return candidate, true
		}
	}
	return "", false
}

func (l *learner) randomString() string {
	n := l.t.Rng.Intn(l.t.MaxSampleLen/2 + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = l.t.Alphabet[l.t.Rng.Intn(len(l.t.Alphabet))]
	}
	return string(b)
}
