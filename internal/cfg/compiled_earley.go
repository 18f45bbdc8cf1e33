package cfg

// The compiled recognizer is the Earley algorithm (with the Aycock–Horspool
// nullable shortcut), restructured for throughput:
//
//   - chart rows are append-only slices of fixed-width items, not
//     map[item]bool sets;
//   - per-row item deduplication uses a generation-stamped table indexed
//     by dotted state, so nothing is cleared between rows or inputs;
//   - the "items waiting at position k for nonterminal A" table is an
//     intrusive linked list threaded through each row's item slice;
//   - prediction consults the precomputed FIRST-byte sets, skipping
//     productions that can neither start with the next input byte nor
//     derive ε — on learned grammars, whose nonterminals carry many
//     alternative literal productions, this prunes most of the chart;
//   - all scratch state lives in a per-Compiled sync.Pool, so a steady
//     state Accepts performs no heap allocation at all.
//
// Accepts reads only the verdict. Parse (compiled_parse.go) also indexes
// the filled chart's completed items to rebuild a parse tree. The tests
// check both against a map-based reference parser.

// citem is one Earley item: production prod (global index) with the dot
// dot symbols in, started at input position origin. waitNext threads the
// same-row list of items waiting on a given nonterminal (-1 terminates).
type citem struct {
	prod     int32
	dot      int32
	origin   int32
	waitNext int32
}

// crow is one chart row: the item set for one input position plus the
// heads of its per-nonterminal waiting lists.
type crow struct {
	items    []citem
	waitHead []int32
}

// earleyScratch is the reusable per-run state of one recognition. stamp
// and origins implement row-scoped item dedup: stamp[ds] marks the last
// row (identified by stampVal) that touched dotted state ds, and
// origins[ds] lists the origins already added for it in that row.
type earleyScratch struct {
	rows     []crow
	stamp    []uint64
	origins  [][]int32
	stampVal uint64
}

// maxPooledRows and maxPooledItems bound the chart a scratch may retain in
// the pool — rows bound the input length, items the total chart width
// (Earley charts are O(n²) items on ambiguous grammars, so a single wide
// input could otherwise pin tens of MB per pooled scratch for the process
// lifetime). An over-budget scratch is simply dropped and rebuilt.
const (
	maxPooledRows  = 1 << 14
	maxPooledItems = 1 << 20 // ~16 MB of items at 16 bytes each
)

func (c *Compiled) getScratch() *earleyScratch {
	if sc, ok := c.scratch.Get().(*earleyScratch); ok {
		return sc
	}
	n := len(c.arena) + c.numProds()
	return &earleyScratch{
		stamp:   make([]uint64, n),
		origins: make([][]int32, n),
	}
}

func (c *Compiled) putScratch(sc *earleyScratch) {
	if cap(sc.rows) > maxPooledRows {
		return
	}
	retained := 0
	for _, row := range sc.rows[:cap(sc.rows)] {
		retained += cap(row.items)
	}
	if retained > maxPooledItems {
		return
	}
	c.scratch.Put(sc)
}

// run executes one recognition over the pooled scratch.
func (c *Compiled) run(sc *earleyScratch, input string) bool {
	n := len(input)
	sc.prepare(n + 1)

	// Seed row 0 with the start productions and process it.
	sc.stampVal++
	sc.initRow(0, c.NumNT())
	for p := c.ntProd[c.start]; p < c.ntProd[c.start+1]; p++ {
		if c.predictable(p, input, 0) {
			c.add(sc, 0, p, 0, 0)
		}
	}
	accepted := c.process(sc, 0, input)

	for pos := 0; pos < n; pos++ {
		// Scan: advance every item whose next symbol is a terminal class
		// containing input[pos] into the next row, then process it.
		sc.stampVal++
		sc.initRow(pos+1, c.NumNT())
		b := input[pos]
		row := &sc.rows[pos]
		for qi := range row.items {
			it := row.items[qi]
			if int(it.dot) == c.prodLen(it.prod) {
				continue
			}
			sym := c.arena[c.prodOff[it.prod]+it.dot]
			if sym < 0 && c.classes[^sym].Has(b) {
				c.add(sc, pos+1, it.prod, it.dot+1, it.origin)
			}
		}
		if len(sc.rows[pos+1].items) == 0 {
			// Dead end: no item survives this byte, so no later row can
			// ever fill and the input is rejected.
			return false
		}
		if c.process(sc, pos+1, input) {
			accepted = true
		}
	}
	return accepted
}

// process drains row pos (items are their own work queue: the slice only
// grows, and qi chases its end), applying prediction and completion. It
// returns whether a completion proved start ⇒* input (only possible when
// pos is the final row).
func (c *Compiled) process(sc *earleyScratch, pos int, input string) bool {
	accepted := false
	final := pos == len(input)
	row := &sc.rows[pos]
	for qi := 0; qi < len(row.items); qi++ {
		it := row.items[qi]
		if int(it.dot) == c.prodLen(it.prod) {
			// Completion: prodNT[it.prod] derives input[it.origin:pos].
			// Advance every item waiting on it at the origin row. When
			// origin == pos the waiting list may still grow behind this
			// walk, but any item registered later meets the nullable
			// shortcut instead: an empty span proves the nonterminal
			// nullable, and prediction advances over nullable
			// nonterminals immediately.
			nt := c.prodNT[it.prod]
			if final && nt == c.start && it.origin == 0 {
				accepted = true
			}
			wi := sc.rows[it.origin].waitHead[nt]
			for wi >= 0 {
				w := sc.rows[it.origin].items[wi]
				c.add(sc, pos, w.prod, w.dot+1, w.origin)
				wi = w.waitNext
			}
			continue
		}
		sym := c.arena[c.prodOff[it.prod]+it.dot]
		if sym < 0 {
			continue // terminal: the scan pass between rows handles it
		}
		// Prediction: register the item as waiting on sym, predict sym's
		// productions (FIRST-pruned), and take the nullable shortcut.
		row.items[qi].waitNext = row.waitHead[sym]
		row.waitHead[sym] = int32(qi)
		for p := c.ntProd[sym]; p < c.ntProd[sym+1]; p++ {
			if c.predictable(p, input, pos) {
				c.add(sc, pos, p, 0, int32(pos))
			}
		}
		if c.nullable[sym] {
			c.add(sc, pos, it.prod, it.dot+1, it.origin)
		}
	}
	return accepted
}

// predictable reports whether predicting production p at input position
// pos can contribute to any derivation: p must either derive ε or be able
// to produce input[pos] as its first byte (at the end of the input only ε
// remains). Skipping the rest is what keeps learned-grammar charts small.
func (c *Compiled) predictable(p int32, input string, pos int) bool {
	if c.prodNullable[p] {
		return true
	}
	return pos < len(input) && c.prodFirst[p].Has(input[pos])
}

// add inserts item (prod, dot, origin) into row pos unless the row already
// holds it. Dedup is by dotted state: ds enumerates (prod, dot) pairs
// compactly, and the stamped origins list scopes seen-origins to the
// current row without any clearing.
func (c *Compiled) add(sc *earleyScratch, pos int, prod, dot, origin int32) {
	ds := int(c.prodOff[prod]) + int(prod) + int(dot)
	if sc.stamp[ds] != sc.stampVal {
		sc.stamp[ds] = sc.stampVal
		sc.origins[ds] = sc.origins[ds][:0]
	}
	for _, o := range sc.origins[ds] {
		if o == origin {
			return
		}
	}
	sc.origins[ds] = append(sc.origins[ds], origin)
	sc.rows[pos].items = append(sc.rows[pos].items, citem{prod: prod, dot: dot, origin: origin, waitNext: -1})
}

// prepare sizes the scratch for a chart of rows rows.
func (sc *earleyScratch) prepare(rows int) {
	if cap(sc.rows) < rows {
		sc.rows = append(sc.rows[:cap(sc.rows)], make([]crow, rows-cap(sc.rows))...)
	}
	sc.rows = sc.rows[:rows]
}

// initRow resets row pos for the current input: empty item set, empty
// waiting lists.
func (sc *earleyScratch) initRow(pos, numNT int) {
	row := &sc.rows[pos]
	row.items = row.items[:0]
	if cap(row.waitHead) < numNT {
		row.waitHead = make([]int32, numNT)
	}
	row.waitHead = row.waitHead[:numNT]
	for i := range row.waitHead {
		row.waitHead[i] = -1
	}
}
