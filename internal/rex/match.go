package rex

import (
	"math/bits"

	"glade/internal/bytesets"
)

// Matcher is a compiled regular expression supporting linear-time matching
// via Thompson NFA simulation.
type Matcher struct {
	states []nstate
	start  int
	accept int
}

// nstate is one NFA state. Exactly one of the transition kinds is used:
// byte-class edge (set, to) or up to two epsilon edges (eps).
type nstate struct {
	set  bytesets.Set
	to   int
	eps  [2]int
	neps int
	kind int8 // 0 = epsilon node, 1 = class edge
}

// Compile builds a Matcher for e using Thompson's construction.
func Compile(e Expr) *Matcher {
	m := &Matcher{}
	m.accept = m.newEps()
	m.start = m.compile(e, m.accept)
	return m
}

func (m *Matcher) newEps() int {
	m.states = append(m.states, nstate{kind: 0})
	return len(m.states) - 1
}

func (m *Matcher) newClass(set bytesets.Set, to int) int {
	m.states = append(m.states, nstate{kind: 1, set: set, to: to})
	return len(m.states) - 1
}

func (m *Matcher) addEps(from, to int) {
	st := &m.states[from]
	if st.neps >= 2 {
		panic("rex: epsilon fan-out exceeded")
	}
	st.eps[st.neps] = to
	st.neps++
}

// compile returns the entry state of a fragment matching e and continuing
// to state next.
func (m *Matcher) compile(e Expr, next int) int {
	switch e := e.(type) {
	case *Lit:
		entry := next
		for i := len(e.S) - 1; i >= 0; i-- {
			entry = m.newClass(bytesets.Of(e.S[i]), entry)
		}
		return entry
	case *Class:
		return m.newClass(e.Set, next)
	case *Seq:
		entry := next
		for i := len(e.Kids) - 1; i >= 0; i-- {
			entry = m.compile(e.Kids[i], entry)
		}
		return entry
	case *Alt:
		if len(e.Kids) == 0 {
			return m.newEps() // dead state: no outgoing edges
		}
		// Build a binary tree of 2-way epsilon splits.
		entries := make([]int, len(e.Kids))
		for i, k := range e.Kids {
			entries[i] = m.compile(k, next)
		}
		for len(entries) > 1 {
			var merged []int
			for i := 0; i < len(entries); i += 2 {
				if i+1 == len(entries) {
					merged = append(merged, entries[i])
					continue
				}
				split := m.newEps()
				m.addEps(split, entries[i])
				m.addEps(split, entries[i+1])
				merged = append(merged, split)
			}
			entries = merged
		}
		return entries[0]
	case *Star:
		loop := m.newEps()
		body := m.compile(e.Kid, loop)
		m.addEps(loop, body)
		m.addEps(loop, next)
		return loop
	default:
		panic("rex: unknown Expr")
	}
}

// Match reports whether input ∈ L(e) for the compiled expression.
func (m *Matcher) Match(input string) bool {
	cur := make([]bool, len(m.states))
	next := make([]bool, len(m.states))
	var stack []int
	addState := func(mark []bool, s int) {
		if mark[s] {
			return
		}
		mark[s] = true
		stack = append(stack, s)
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			st := &m.states[q]
			if st.kind == 0 {
				for i := 0; i < st.neps; i++ {
					if !mark[st.eps[i]] {
						mark[st.eps[i]] = true
						stack = append(stack, st.eps[i])
					}
				}
			}
		}
	}
	addState(cur, m.start)
	for i := 0; i < len(input); i++ {
		c := input[i]
		any := false
		for s := range next {
			next[s] = false
		}
		for s, on := range cur {
			if !on {
				continue
			}
			st := &m.states[s]
			if st.kind == 1 && st.set.Has(c) {
				addState(next, st.to)
				any = true
			}
		}
		cur, next = next, cur
		if !any {
			return false
		}
	}
	return cur[m.accept]
}

// Match is a convenience that compiles e and matches input once. For
// repeated matching against the same expression, use Compile.
func Match(e Expr, input string) bool { return Compile(e).Match(input) }

// Substitutions returns, for each position i of s, the set of bytes σ with
// pre·s[:i]·σ·s[i+1:]·post ∈ L(e): the one-byte substitutions of s that
// stay in the language in the context (pre, post). Row i holds s[i] itself
// exactly when pre·s·post matches.
//
// One forward state-set pass over pre·s and one backward co-reachability
// pass over s·post answer every (position, byte) pair at once, in
// O((|pre|+|s|+|post|)·|states|) time, where asking Match about each pair
// would cost a full simulation per pair.
func (m *Matcher) Substitutions(pre, s, post string) []bytesets.Set {
	rows := make([]bytesets.Set, len(s))
	if len(s) == 0 {
		return rows
	}
	w := newWalker(m)
	words := (len(m.states) + 63) / 64
	cur, next := make(stateSet, words), make(stateSet, words)

	// Backward: co row i holds the states from which s[i+1:]·post reaches
	// accept.
	co := make(stateSet, len(s)*words)
	row := func(i int) stateSet { return co[i*words : (i+1)*words] }
	w.closeBackward(cur, m.accept)
	for j := len(post) - 1; j >= 0; j-- {
		w.stepBackward(cur, next, post[j])
		cur, next = next, cur
	}
	copy(row(len(s)-1), cur)
	for i := len(s) - 1; i > 0; i-- {
		w.stepBackward(row(i), row(i-1), s[i])
	}

	// Forward: cur is the state set after pre·s[:i]; a class edge out of it
	// whose target is in co row i admits its whole class at position i.
	clear(cur)
	w.closeForward(cur, m.start)
	for j := 0; j < len(pre); j++ {
		w.stepForward(cur, next, pre[j])
		cur, next = next, cur
	}
	for i := 0; i < len(s); i++ {
		live, after := false, row(i)
		cur.each(func(q int) {
			live = true
			if st := &m.states[q]; st.kind == 1 && after.has(st.to) {
				rows[i] = rows[i].Union(st.set)
			}
		})
		if !live {
			break
		}
		w.stepForward(cur, next, s[i])
		cur, next = next, cur
	}
	return rows
}

// stateSet is a bitset over a Matcher's NFA states.
type stateSet []uint64

func (b stateSet) has(q int) bool { return b[q>>6]&(1<<(q&63)) != 0 }
func (b stateSet) add(q int)      { b[q>>6] |= 1 << (q & 63) }

// each calls f on every member, in increasing state order.
func (b stateSet) each(f func(q int)) {
	for w, word := range b {
		for word != 0 {
			f(w<<6 | bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// walker steps state sets through a Matcher's NFA in either direction.
type walker struct {
	m       *Matcher
	preds   [][]int // each state's epsilon predecessors
	classes []int   // the states with a class edge
	stack   []int
}

func newWalker(m *Matcher) *walker {
	w := &walker{m: m, preds: make([][]int, len(m.states))}
	for q := range m.states {
		st := &m.states[q]
		if st.kind == 1 {
			w.classes = append(w.classes, q)
		}
		for k := 0; k < st.neps; k++ {
			w.preds[st.eps[k]] = append(w.preds[st.eps[k]], q)
		}
	}
	return w
}

// closeForward adds q and every state it reaches by epsilon edges to set.
func (w *walker) closeForward(set stateSet, q int) {
	if set.has(q) {
		return
	}
	set.add(q)
	w.stack = append(w.stack[:0], q)
	for len(w.stack) > 0 {
		st := &w.m.states[w.stack[len(w.stack)-1]]
		w.stack = w.stack[:len(w.stack)-1]
		for k := 0; k < st.neps; k++ {
			if t := st.eps[k]; !set.has(t) {
				set.add(t)
				w.stack = append(w.stack, t)
			}
		}
	}
}

// closeBackward adds q and every state that reaches it by epsilon edges to
// set.
func (w *walker) closeBackward(set stateSet, q int) {
	if set.has(q) {
		return
	}
	set.add(q)
	w.stack = append(w.stack[:0], q)
	for len(w.stack) > 0 {
		q := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		for _, p := range w.preds[q] {
			if !set.has(p) {
				set.add(p)
				w.stack = append(w.stack, p)
			}
		}
	}
}

// stepForward sets next to the epsilon-closed states reached from cur by
// consuming c.
func (w *walker) stepForward(cur, next stateSet, c byte) {
	clear(next)
	cur.each(func(q int) {
		if st := &w.m.states[q]; st.kind == 1 && st.set.Has(c) {
			w.closeForward(next, st.to)
		}
	})
}

// stepBackward sets prev to the states from which c·v reaches accept,
// given the set cur of states from which v does.
func (w *walker) stepBackward(cur, prev stateSet, c byte) {
	clear(prev)
	for _, q := range w.classes {
		if st := &w.m.states[q]; st.set.Has(c) && cur.has(st.to) {
			w.closeBackward(prev, q)
		}
	}
}
