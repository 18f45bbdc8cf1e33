// Package rpni implements the RPNI algorithm (Oncina & García 1992) for
// learning a regular language from positive and negative examples: build
// the prefix-tree acceptor of the positives, then merge states in canonical
// order, keeping a merge only when the quotient automaton still rejects
// every negative example. This is the second baseline of §8.2.
package rpni

import (
	"sort"
	"time"

	"glade/internal/automata"
)

// Stats reports learner effort.
type Stats struct {
	PTAStates   int
	MergesTried int
	MergesKept  int
	FinalStates int
	TimedOut    bool
	Duration    time.Duration
}

// Learn runs RPNI over the given samples and alphabet. The returned DFA is
// complete over the alphabet (missing transitions go to a dead state). On
// timeout the current partially-merged automaton is returned with
// Stats.TimedOut set.
func Learn(positives, negatives []string, alphabet []byte, timeout time.Duration) (*automata.DFA, Stats) {
	var stats Stats
	start := time.Now()
	var deadline time.Time
	if timeout > 0 {
		deadline = start.Add(timeout)
	}
	expired := func() bool {
		if deadline.IsZero() {
			return false
		}
		if time.Now().After(deadline) {
			stats.TimedOut = true
			return true
		}
		return false
	}

	p := buildPTA(positives, alphabet)
	stats.PTAStates = p.n

	// Red-blue merge loop in canonical (BFS) order.
	red := []int{0}
	inRed := map[int]bool{0: true}
	blueSet := map[int]bool{}
	refreshBlue := func() []int {
		for b := range blueSet {
			delete(blueSet, b)
		}
		for _, r := range red {
			rr := p.find(r)
			for _, t := range p.trans[rr] {
				tt := p.find(t)
				if !inRed[tt] {
					blueSet[tt] = true
				}
			}
		}
		blues := make([]int, 0, len(blueSet))
		for b := range blueSet {
			blues = append(blues, b)
		}
		sort.Ints(blues)
		return blues
	}

	for {
		if expired() {
			break
		}
		blues := refreshBlue()
		if len(blues) == 0 {
			break
		}
		q := blues[0]
		merged := false
		for _, r := range red {
			rr := p.find(r)
			if rr == p.find(q) {
				merged = true
				break
			}
			stats.MergesTried++
			snapshot := p.save()
			if p.mergeFold(rr, p.find(q)) && p.consistent(negatives) {
				stats.MergesKept++
				merged = true
				break
			}
			p.restore(snapshot)
			if expired() {
				break
			}
		}
		if !merged {
			red = append(red, p.find(q))
			inRed[p.find(q)] = true
		}
	}

	d := p.toDFA(alphabet)
	stats.FinalStates = d.NumStates()
	stats.Duration = time.Since(start)
	return d, stats
}

// pta is a prefix-tree acceptor under state merging: a union-find over tree
// states plus per-representative transition maps.
type pta struct {
	n      int
	parent []int
	accept []bool
	trans  []map[byte]int
}

func buildPTA(positives []string, alphabet []byte) *pta {
	// Sort for canonical state numbering (lexicographic prefix order).
	sorted := append([]string(nil), positives...)
	sort.Strings(sorted)
	p := &pta{}
	p.newState()
	inAlpha := map[byte]bool{}
	for _, a := range alphabet {
		inAlpha[a] = true
	}
	for _, s := range sorted {
		cur := 0
		ok := true
		for i := 0; i < len(s); i++ {
			if !inAlpha[s[i]] {
				ok = false
				break
			}
			next, exists := p.trans[cur][s[i]]
			if !exists {
				next = p.newState()
				p.trans[cur][s[i]] = next
			}
			cur = next
		}
		if ok {
			p.accept[cur] = true
		}
	}
	return p
}

func (p *pta) newState() int {
	p.parent = append(p.parent, p.n)
	p.accept = append(p.accept, false)
	p.trans = append(p.trans, map[byte]int{})
	p.n++
	return p.n - 1
}

func (p *pta) find(x int) int {
	for p.parent[x] != x {
		p.parent[x] = p.parent[p.parent[x]]
		x = p.parent[x]
	}
	return x
}

// save snapshots the mutable state for backtracking a failed merge.
type snapshot struct {
	parent []int
	accept []bool
	trans  []map[byte]int
}

func (p *pta) save() *snapshot {
	s := &snapshot{
		parent: append([]int(nil), p.parent...),
		accept: append([]bool(nil), p.accept...),
		trans:  make([]map[byte]int, len(p.trans)),
	}
	for i, m := range p.trans {
		c := make(map[byte]int, len(m))
		for k, v := range m {
			c[k] = v
		}
		s.trans[i] = c
	}
	return s
}

func (p *pta) restore(s *snapshot) {
	p.parent = s.parent
	p.accept = s.accept
	p.trans = s.trans
}

// mergeFold merges state b into state a and recursively folds successor
// conflicts to restore determinism. Acceptance conflicts are legal here
// because negatives are checked separately. It always succeeds; the boolean
// keeps the call shape symmetric with consistent().
func (p *pta) mergeFold(a, b int) bool {
	a, b = p.find(a), p.find(b)
	if a == b {
		return true
	}
	p.parent[b] = a
	p.accept[a] = p.accept[a] || p.accept[b]
	// Snapshot b's edges: recursive folds may mutate transition maps while
	// we fold, and ranging over a mutating map is unsafe. Fold them in byte
	// order: each order can leave a different union-find representative,
	// which changes the next blue state and so the whole merge sequence.
	type edge struct {
		c byte
		t int
	}
	edges := make([]edge, 0, len(p.trans[b]))
	for c, t := range p.trans[b] {
		edges = append(edges, edge{c, t})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].c < edges[j].c })
	for _, e := range edges {
		a = p.find(a)
		if ta, ok := p.trans[a][e.c]; ok {
			if !p.mergeFold(ta, e.t) {
				return false
			}
		} else {
			p.trans[a][e.c] = e.t
		}
	}
	return true
}

// consistent reports whether every negative example is rejected by the
// current quotient automaton (strings that fall off the automaton are
// rejected).
func (p *pta) consistent(negatives []string) bool {
	for _, s := range negatives {
		cur := p.find(0)
		ok := true
		for i := 0; i < len(s); i++ {
			next, exists := p.trans[cur][s[i]]
			if !exists {
				ok = false
				break
			}
			cur = p.find(next)
		}
		if ok && p.accept[cur] {
			return false
		}
	}
	return true
}

// toDFA extracts the quotient automaton as a complete DFA with an explicit
// dead state for missing transitions.
func (p *pta) toDFA(alphabet []byte) *automata.DFA {
	idOf := map[int]int{}
	var reps []int
	assign := func(r int) int {
		if id, ok := idOf[r]; ok {
			return id
		}
		id := len(reps)
		idOf[r] = id
		reps = append(reps, r)
		return id
	}
	assign(p.find(0))
	for qi := 0; qi < len(reps); qi++ {
		r := reps[qi]
		for _, a := range alphabet {
			if t, ok := p.trans[r][a]; ok {
				assign(p.find(t))
			}
		}
	}
	dead := len(reps)
	d := &automata.DFA{Alphabet: append([]byte(nil), alphabet...)}
	d.Delta = make([][]int, len(reps)+1)
	d.Accept = make([]bool, len(reps)+1)
	for qi, r := range reps {
		d.Accept[qi] = p.accept[r]
		row := make([]int, len(alphabet))
		for ai, a := range alphabet {
			if t, ok := p.trans[r][a]; ok {
				row[ai] = idOf[p.find(t)]
			} else {
				row[ai] = dead
			}
		}
		d.Delta[qi] = row
	}
	deadRow := make([]int, len(alphabet))
	for i := range deadRow {
		deadRow[i] = dead
	}
	d.Delta[dead] = deadRow
	return d
}
