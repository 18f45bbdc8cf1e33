package cfg

// The reference engines the compiled ones are differentially tested
// against: Parser, a map-based Earley recognizer with no FIRST pruning,
// and Sampler, a pointer-walking §8.1 sampler. They live in package cfg so
// the cfg_test files see them too; no production code uses them.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Parser is an Earley recognizer/parser for a fixed grammar. It is safe for
// sequential reuse across inputs; it is not safe for concurrent use.
type Parser struct {
	g        *Grammar
	nullable []bool
	c        *Compiled // production tables for the shared tree builder
}

// NewParser compiles g into a Parser.
func NewParser(g *Grammar) *Parser {
	return &Parser{g: g, nullable: g.Nullable(), c: Compile(g)}
}

// item is an Earley item: production Prods[nt][prod], dot position, origin.
type item struct {
	nt, prod, dot, origin int
}

// chart holds, for each input position, the item set and, for parse-tree
// extraction, the set of completed spans.
type chart struct {
	sets []map[item]bool
	// completed[nt] maps start position to the sorted list of end positions
	// such that nt derives input[start:end].
	completed []map[int][]int
}

// Accepts reports whether input ∈ L(g).
func (p *Parser) Accepts(input string) bool {
	return p.accepted(p.run(input), input)
}

func (p *Parser) accepted(ch *chart, input string) bool {
	return slices.Contains(ch.completed[p.g.Start][0], len(input))
}

// run executes the Earley algorithm and returns the filled chart.
func (p *Parser) run(input string) *chart {
	g := p.g
	n := len(input)
	ch := &chart{
		sets:      make([]map[item]bool, n+1),
		completed: make([]map[int][]int, g.NumNT()),
	}
	waiting := make([]map[int][]item, n+1) // waiting[k][nt] = items at k expecting nt
	for i := range ch.sets {
		ch.sets[i], waiting[i] = map[item]bool{}, map[int][]item{}
	}
	for nt := range ch.completed {
		ch.completed[nt] = map[int][]int{}
	}
	recordComplete := func(nt, start, end int) {
		ends := ch.completed[nt][start]
		if idx, found := slices.BinarySearch(ends, end); !found {
			ch.completed[nt][start] = slices.Insert(ends, idx, end)
		}
	}

	var queue []item
	add := func(pos int, it item) {
		if !ch.sets[pos][it] {
			ch.sets[pos][it] = true
			queue = append(queue, it)
		}
	}

	process := func(pos int) {
		for len(queue) > 0 {
			it := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			rhs := g.Prods[it.nt][it.prod]
			if it.dot == len(rhs) {
				// Completion: nt derives input[origin:pos].
				recordComplete(it.nt, it.origin, pos)
				for _, w := range waiting[it.origin][it.nt] {
					add(pos, item{w.nt, w.prod, w.dot + 1, w.origin})
				}
				continue
			}
			sym := rhs[it.dot]
			if sym.IsNT() {
				// Prediction.
				waiting[pos][sym.NT] = append(waiting[pos][sym.NT], it)
				for pi := range g.Prods[sym.NT] {
					add(pos, item{sym.NT, pi, 0, pos})
				}
				// Aycock–Horspool nullable shortcut: if the predicted
				// nonterminal is nullable, advance over it immediately.
				if p.nullable[sym.NT] {
					recordComplete(sym.NT, pos, pos)
					add(pos, item{it.nt, it.prod, it.dot + 1, it.origin})
				}
			}
			// Terminals are handled by the scan pass between positions.
		}
	}

	// Seed with the start productions.
	for pi := range g.Prods[g.Start] {
		add(0, item{g.Start, pi, 0, 0})
	}
	process(0)
	for pos := 0; pos < n; pos++ {
		for it := range ch.sets[pos] {
			rhs := g.Prods[it.nt][it.prod]
			if it.dot < len(rhs) && !rhs[it.dot].IsNT() && rhs[it.dot].Set.Has(input[pos]) {
				add(pos+1, item{it.nt, it.prod, it.dot + 1, it.origin})
			}
		}
		process(pos + 1)
		if len(ch.sets[pos+1]) == 0 {
			// Dead end: no further progress is possible; the remaining
			// charts stay empty and the input is rejected.
			break
		}
	}
	return ch
}

// spans hands the chart's completed spans to the tree builder Compiled.Parse
// uses, in its (nonterminal, origin) layout.
func (ch *chart) spans(n int) *spans {
	s := &spans{width: n + 1, end: make([][]int32, len(ch.completed)*(n+1))}
	for nt, byStart := range ch.completed {
		for i, ends := range byStart {
			for _, end := range ends {
				s.end[nt*s.width+i] = append(s.end[nt*s.width+i], int32(end))
			}
		}
	}
	return s
}

// Text returns the substring of input this node derives.
func (t *Tree) Text(input string) string { return input[t.Lo:t.Hi] }

// Nodes appends all nodes of the subtree (preorder) to dst and returns it.
func (t *Tree) Nodes(dst []*Tree) []*Tree {
	dst = append(dst, t)
	for _, k := range t.Kids {
		dst = k.Nodes(dst)
	}
	return dst
}

// Parse returns a parse tree for input, or an error if input ∉ L(g). The
// tree is built from the map chart's completed spans by the same builder
// as Compiled.Parse.
func (p *Parser) Parse(input string) (*Tree, error) {
	ch := p.run(input)
	if !p.accepted(ch, input) {
		return nil, fmt.Errorf("cfg: input not in language (len %d)", len(input))
	}
	return p.c.buildTree(ch.spans(len(input)), input)
}

// Sampler draws random strings from a grammar by the procedure of §8.1:
// uniform choice among a nonterminal's productions, expanded top down.
// Past the depth budget it picks among the productions of minimal
// derivation depth only, so expansion terminates.
type Sampler struct {
	g *Gram
	// minDepth[nt] is the height of nt's shallowest derivation tree, or
	// unbounded if nt is unproductive; minCost[nt][prod] is 1 + the max
	// minDepth over the production's nonterminals.
	minDepth []int
	minCost  [][]int
	MaxDepth int
}

// Gram aliases Grammar so the Sampler struct reads naturally.
type Gram = Grammar

const unbounded = int(^uint(0) >> 1)

// NewSampler builds a sampler for g with the given depth budget.
func NewSampler(g *Grammar, maxDepth int) *Sampler {
	s := &Sampler{g: g, MaxDepth: maxDepth, minDepth: make([]int, g.NumNT()), minCost: make([][]int, g.NumNT())}
	for i := range s.minDepth {
		s.minDepth[i] = unbounded
	}
	cost := func(p []Sym) int {
		c := 1
		for _, sym := range p {
			if sym.IsNT() {
				if s.minDepth[sym.NT] == unbounded {
					return unbounded
				}
				c = max(c, s.minDepth[sym.NT]+1)
			}
		}
		return c
	}
	for changed := true; changed; {
		changed = false
		for nt, prods := range g.Prods {
			for _, p := range prods {
				if c := cost(p); c < s.minDepth[nt] {
					s.minDepth[nt], changed = c, true
				}
			}
		}
	}
	for nt, prods := range g.Prods {
		for _, p := range prods {
			s.minCost[nt] = append(s.minCost[nt], cost(p))
		}
	}
	return s
}

// Sample draws one string from the start symbol. It panics if the start
// symbol is unproductive.
func (s *Sampler) Sample(rng *rand.Rand) string {
	return s.SampleFrom(rng, s.g.Start)
}

// SampleFrom draws one string derived from nonterminal nt.
func (s *Sampler) SampleFrom(rng *rand.Rand, nt int) string {
	if s.minDepth[nt] == unbounded {
		panic("cfg: sampling from unproductive nonterminal " + s.g.Names[nt])
	}
	var b strings.Builder
	s.expand(&b, rng, nt, s.MaxDepth)
	return b.String()
}

func (s *Sampler) expand(b *strings.Builder, rng *rand.Rand, nt, budget int) {
	var fits []int
	for pi, c := range s.minCost[nt] {
		if c <= budget {
			fits = append(fits, pi)
		}
	}
	if len(fits) == 0 {
		best := slices.Min(s.minCost[nt])
		for pi, c := range s.minCost[nt] {
			if c == best {
				fits = append(fits, pi)
			}
		}
	}
	for _, sym := range s.g.Prods[nt][fits[rng.Intn(len(fits))]] {
		if sym.IsNT() {
			s.expand(b, rng, sym.NT, budget-1)
		} else {
			b.WriteByte(sym.Set.Pick(rng.Intn(sym.Set.Len())))
		}
	}
}
