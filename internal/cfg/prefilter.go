package cfg

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// prefilter.go is the first rung of the recognition ladder: a DFA over a
// regular over-approximation of the grammar's language, used as an O(n),
// allocation-free reject-fast filter in front of the VM and Earley rungs.
//
// The approximation is the classic RTN collapse (Nederhof's basic
// construction): treat every dotted position of the flat IR as an NFA
// state, wire terminal symbols as byte-class transitions, and approximate
// nonterminal symbols by ε-edges into every production of the callee plus
// ε-edges from every production end of that callee back to *every*
// position that follows an occurrence of it. Because call and return
// edges are not matched up, the NFA's language is a superset of L(G):
// whenever the DFA rejects, the input is certainly not in the language,
// so Accepts can return false without running a general recognizer.
// DFA acceptance means only "maybe" and hands off to the next rung.
//
// The subset construction runs over byte-equivalence classes (bytes that
// no terminal class distinguishes share a DFA column) and composes its
// ε-closures instead of searching for them. A dotted state's ε-edges
// depend only on the nonterminal after its dot (calls) or on the one whose
// production it ends (returns), so two closure bitsets per nonterminal,
// one DFS each, close any set of states by word-wise OR. The construction
// is bounded by state and work budgets; grammars whose approximation
// explodes simply run without a prefilter.

const (
	// maxPrefilterNFAStates bounds the dotted-state NFA: grammars larger
	// than this skip the prefilter (subset-construction bitsets would be
	// proportionally wide).
	maxPrefilterNFAStates = 1 << 16
	// maxPrefilterDFAStates bounds the determinized automaton; the classic
	// 2^n blow-up grammars hit this and fall back to filterless operation.
	maxPrefilterDFAStates = 2048
	// prefilterWorkBudget bounds total elementary construction steps
	// (NFA edges, byte-class probes, one step per column for each terminal
	// member of each DFA state) plus the closure tables' words, so Compile
	// stays cheap even on adversarial (e.g. fuzz-generated) grammars.
	prefilterWorkBudget = 1 << 24
)

// prefilter is the built DFA: a flat transition table over byte-equivalence
// classes. start == -1 encodes the empty approximation (reject everything).
type prefilter struct {
	width  int32      // number of byte-equivalence classes
	start  int32      // start state, or -1 when even ε is rejected
	cls    [256]int32 // byte -> equivalence class
	delta  []int32    // state*width + class -> next state, -1 = dead
	accept []bool     // per-state acceptance
}

// mayAccept reports whether input is in the DFA's (superset) language.
// A false result proves input ∉ L(g); true means the next rung decides.
// It is allocation-free and safe for concurrent use.
func (d *prefilter) mayAccept(input string) bool {
	st := d.start
	if st < 0 {
		return false
	}
	w := int(d.width)
	delta := d.delta
	for i := 0; i < len(input); i++ {
		st = delta[int(st)*w+int(d.cls[input[i]])]
		if st < 0 {
			return false
		}
	}
	return d.accept[st]
}

// buildPrefilter constructs the approximation DFA from the flat IR, or
// returns nil when the grammar exceeds the state or work budgets.
func (c *Compiled) buildPrefilter() *prefilter {
	numStates := len(c.arena) + c.numProds()
	if numStates > maxPrefilterNFAStates {
		return nil
	}
	budget := prefilterWorkBudget
	numNT := int32(c.NumNT())

	// NFA over dotted states, reusing the compiled recognizer's encoding:
	// ds(p, dot) = prodOff[p] + p + dot, so ds+1 is "dot advanced by one".
	// A state before a terminal has no ε-edges; one before nonterminal X
	// calls X's production starts; the end of a production of Y returns
	// to afterNT[Y]. tabOf names the closure table those edges reach.
	symCls := make([]int32, numStates) // terminal class at the dot, or -1
	tabOf := make([]int32, numStates)  // X for a call, numNT+Y for a return, or -1
	acc := make([]bool, numStates)     // production ends of the start NT
	afterNT := make([][]int32, numNT)
	for p := 0; p < c.numProds(); p++ {
		base := int(c.prodOff[p]) + p
		n := c.prodLen(int32(p))
		for dot := 0; dot < n; dot++ {
			budget--
			s := c.arena[int(c.prodOff[p])+dot]
			ds := base + dot
			if s < 0 {
				symCls[ds], tabOf[ds] = ^s, -1
				continue
			}
			symCls[ds], tabOf[ds] = -1, s
			afterNT[s] = append(afterNT[s], int32(ds+1))
		}
		symCls[base+n], tabOf[base+n] = -1, numNT+c.prodNT[p]
		acc[base+n] = c.prodNT[p] == c.start
	}
	if budget < 0 {
		return nil
	}
	for p := 0; p < c.numProds(); p++ {
		budget -= len(afterNT[c.prodNT[p]]) // one return edge each
	}
	if budget < 0 {
		return nil
	}

	// Byte-equivalence classes: bytes with identical membership across all
	// terminal classes share one DFA column.
	d := &prefilter{start: -1}
	keyLen := (len(c.classes) + 7) / 8
	sigs := map[string]int32{}
	var reps []byte // one representative byte per equivalence class
	key := make([]byte, keyLen)
	for b := 0; b < 256; b++ {
		for i := range key {
			key[i] = 0
		}
		for k, set := range c.classes {
			if set.Has(byte(b)) {
				key[k/8] |= 1 << (k % 8)
			}
		}
		budget -= len(c.classes)
		id, ok := sigs[string(key)]
		if !ok {
			id = int32(len(reps))
			sigs[string(key)] = id
			reps = append(reps, byte(b))
		}
		d.cls[b] = id
	}
	if budget < 0 {
		return nil
	}
	d.width = int32(len(reps))
	if c.ntProd[c.start] == c.ntProd[c.start+1] {
		return d // start == -1: the empty language rejects everything
	}
	moves := make([][]int32, len(c.classes)) // the columns class k matches
	for k, set := range c.classes {
		for e, b := range reps {
			if set.Has(b) {
				moves[k] = append(moves[k], int32(e))
			}
		}
	}

	// The closure tables: row X is the closure of X's production starts,
	// row numNT+Y that of afterNT[Y], so closure(ds) = {ds} ∪ row tabOf[ds].
	words := max((numStates+63)/64, 1)
	if budget -= 2 * int(numNT) * words; budget < 0 {
		return nil
	}
	tabs := make([]uint64, 2*int(numNT)*words)
	tab := func(r int32) []uint64 { return tabs[int(r)*words : int(r+1)*words] }
	var stack []int32
	visit := func(set []uint64, t int32) {
		if set[t>>6]&(1<<(t&63)) == 0 {
			set[t>>6] |= 1 << (t & 63)
			stack = append(stack, t)
		}
	}
	follow := func(set []uint64, r int32) { // visit the targets of row r's edges
		if r >= numNT {
			for _, t := range afterNT[r-numNT] {
				visit(set, t)
			}
			return
		}
		for q := c.ntProd[r]; q < c.ntProd[r+1]; q++ {
			visit(set, c.prodOff[q]+q)
		}
	}
	for r := int32(0); r < 2*numNT; r++ {
		follow(tab(r), r)
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if tabOf[t] >= 0 {
				follow(tab(r), tabOf[t])
			}
		}
	}

	// Subset construction over bitsets of NFA states, numbered in the
	// order they are found. A state's kernel pairs each member before a
	// terminal with its class; sorted, the pairs group by class, so each
	// class's part is closed once and OR-ed into every column it matches.
	sets := slices.Clone(tab(c.start)) // state i is sets[i*words:][:words]
	var keyBuf []byte
	keyOf := func(set []uint64) []byte {
		keyBuf = keyBuf[:0]
		for _, w := range set {
			keyBuf = binary.LittleEndian.AppendUint64(keyBuf, w)
		}
		return keyBuf
	}
	index := map[string]int32{string(keyOf(sets)): 0}
	d.start = 0
	next := make([]uint64, int(d.width)*words) // the successor set per column
	hit := make([]bool, d.width)
	closed := make([]uint64, words)
	var kernel []uint64 // class<<32 | ds+1
	for si := 0; si*words < len(sets); si++ {
		accepting := false
		kernel = kernel[:0]
		for wi, w := range sets[si*words : (si+1)*words] {
			for w != 0 {
				ds := int32(wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
				accepting = accepting || acc[ds]
				if k := symCls[ds]; k >= 0 {
					budget -= int(d.width)
					kernel = append(kernel, uint64(k)<<32|uint64(ds+1))
				}
			}
		}
		if budget < 0 {
			return nil
		}
		d.accept = append(d.accept, accepting)
		slices.Sort(kernel)
		for i := 0; i < len(kernel); {
			k := kernel[i] >> 32
			clear(closed)
			for ; i < len(kernel) && kernel[i]>>32 == k; i++ {
				t := int32(uint32(kernel[i]))
				closed[t>>6] |= 1 << (t & 63)
				if tabOf[t] >= 0 {
					orInto(closed, tab(tabOf[t]))
				}
			}
			for _, e := range moves[k] {
				orInto(next[int(e)*words:int(e+1)*words], closed)
				hit[e] = true
			}
		}
		// Intern each column's successor in order; the lookup does not
		// allocate, only a new state's key and set are stored.
		for e := range hit {
			id := int32(-1)
			if hit[e] {
				col := next[e*words : (e+1)*words]
				var ok bool
				if id, ok = index[string(keyOf(col))]; !ok {
					if id = int32(len(sets) / words); id >= maxPrefilterDFAStates {
						return nil
					}
					index[string(keyBuf)] = id
					sets = append(sets, col...)
				}
				clear(col)
				hit[e] = false
			}
			d.delta = append(d.delta, id)
		}
	}
	return d
}

// orInto sets dst |= src, word by word.
func orInto(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}
