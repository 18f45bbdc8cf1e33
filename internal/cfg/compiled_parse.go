package cfg

import "fmt"

// Tree extraction on the compiled engine: Parse runs the Earley rung on
// the pooled scratch, indexes the chart's completed items by
// (nonterminal, origin) into sorted end lists, and rebuilds one derivation
// top-down from that index. FIRST-byte pruning only skips productions that
// can neither derive ε nor start with the next input byte, so every span
// of a full derivation is still completed in the chart: the index may lack
// spans no derivation of the input uses, never one it needs.

// Tree is a parse-tree node for a nonterminal. Kids holds one subtree per
// nonterminal symbol on the production's right-hand side, in order;
// terminal symbols contribute to the span but not to Kids.
type Tree struct {
	NT   int
	Prod int // index within Grammar.Prods[NT]
	Lo   int // span start in the input
	Hi   int // span end in the input
	Kids []*Tree
}

// Parse returns a parse tree for input, or an error if input ∉ L(g). When
// the grammar is ambiguous it returns the first derivation found trying
// each nonterminal's productions in grammar order and each nonterminal
// symbol's spans longest first. It is safe for concurrent use.
func (c *Compiled) Parse(input string) (*Tree, error) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	if !c.run(sc, input) {
		return nil, fmt.Errorf("cfg: input not in language (len %d)", len(input))
	}
	return c.buildTree(c.chartSpans(sc, len(input)), input)
}

// spans lists, for each (nonterminal, origin), the sorted ends of the spans
// a recognizer completed: ends(nt, i) holds every j it proved nt ⇒*
// input[i:j] for.
type spans struct {
	width int       // origins per nonterminal: the input length + 1
	end   [][]int32 // indexed by nt*width+origin
}

func (s *spans) ends(nt int32, origin int) []int32 { return s.end[int(nt)*s.width+origin] }

// chartSpans indexes the completed items of the chart rows 0..n in sc.
// Rows come in position order, so each end list comes out sorted, and a
// repeat (two productions of one nonterminal completing one span) is
// always the list's last entry.
func (c *Compiled) chartSpans(sc *earleyScratch, n int) *spans {
	s := &spans{width: n + 1, end: make([][]int32, c.NumNT()*(n+1))}
	for pos := 0; pos <= n; pos++ {
		for _, it := range sc.rows[pos].items {
			if int(it.dot) != c.prodLen(it.prod) {
				continue
			}
			k := int(c.prodNT[it.prod])*s.width + int(it.origin)
			if e := s.end[k]; len(e) == 0 || e[len(e)-1] != int32(pos) {
				s.end[k] = append(e, int32(pos))
			}
		}
	}
	return s
}

// buildTree reconstructs one derivation of the start symbol over the whole
// input from a span index that proved the input accepted.
func (c *Compiled) buildTree(s *spans, input string) (*Tree, error) {
	b := &builder{
		c: c, spans: s, input: input,
		failed:      map[buildKey]bool{},
		splitFailed: map[splitKey]bool{},
		inProgress:  map[buildKey]bool{},
	}
	t := b.build(c.start, 0, len(input))
	if t == nil {
		return nil, fmt.Errorf("cfg: internal error: accepted input has no derivation")
	}
	return t, nil
}

type buildKey struct{ nt, i, j int32 }

type splitKey struct{ prod, k, pos, j int32 }

// builder reconstructs one derivation from a span index, memoizing
// failures so backtracking stays polynomial.
type builder struct {
	c           *Compiled
	spans       *spans
	input       string
	failed      map[buildKey]bool
	splitFailed map[splitKey]bool
	// inProgress guards against unit-production cycles (A ⇒ B ⇒ A over the
	// same span): re-entering a key already on the recursion stack returns
	// nil, forcing the builder to pick an acyclic derivation, which must
	// exist for any accepted input. guardHits counts guard activations so
	// failures observed under a guard are not memoized permanently.
	inProgress map[buildKey]bool
	guardHits  int
}

// build reconstructs a derivation of nt over input[i:j].
func (b *builder) build(nt int32, i, j int) *Tree {
	key := buildKey{nt, int32(i), int32(j)}
	if b.failed[key] {
		return nil
	}
	if b.inProgress[key] {
		b.guardHits++
		return nil
	}
	b.inProgress[key] = true
	defer delete(b.inProgress, key)
	before := b.guardHits
	for p := b.c.ntProd[nt]; p < b.c.ntProd[nt+1]; p++ {
		if kids := b.split(p, 0, i, j); kids != nil {
			return &Tree{NT: int(nt), Prod: int(p - b.c.ntProd[nt]), Lo: i, Hi: j, Kids: kids}
		}
	}
	if b.guardHits == before {
		b.failed[key] = true
	}
	return nil
}

// split derives input[pos:j] from symbols k.. of production p, returning
// the subtrees of their nonterminal symbols — non-nil, possibly empty —
// or nil if they cannot derive it.
func (b *builder) split(p, k int32, pos, j int) []*Tree {
	key := splitKey{p, k, int32(pos), int32(j)}
	if b.splitFailed[key] {
		return nil
	}
	before := b.guardHits
	c := b.c
	if int(k) == c.prodLen(p) {
		if pos == j {
			return []*Tree{}
		}
		b.splitFailed[key] = true
		return nil
	}
	if sym := c.arena[c.prodOff[p]+k]; sym < 0 {
		if pos < j && c.classes[^sym].Has(b.input[pos]) {
			if rest := b.split(p, k+1, pos+1, j); rest != nil {
				return rest
			}
		}
	} else {
		// Try every completed span of sym from pos, longest first:
		// synthesized grammars are repetition-heavy, and preferring the
		// longest span first reaches the unique split quickly.
		ends := b.spans.ends(sym, pos)
		for e := len(ends) - 1; e >= 0; e-- {
			end := int(ends[e])
			if end > j {
				continue
			}
			rest := b.split(p, k+1, end, j)
			if rest == nil {
				continue
			}
			if kid := b.build(sym, pos, end); kid != nil {
				return append([]*Tree{kid}, rest...)
			}
		}
	}
	if b.guardHits == before {
		b.splitFailed[key] = true
	}
	return nil
}
