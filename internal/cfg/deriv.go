package cfg

import "slices"

// Derivation is a derivation tree laid out flat in preorder over one byte
// buffer holding the produced text — the representation the grammar-based
// fuzzer mutates. Node k is the k-th nonterminal node of a preorder walk:
// its subtree is nodes [k, k+Size(k)) and produces Text()[lo:hi] for
// (lo, hi) = Span(k). Picking a node is an index, rendering is the buffer,
// and replacing a subtree is a splice (Splice).
//
// The zero value is an empty derivation; Compiled.SampleInto and CopyFrom
// fill one in place, reusing its storage, so a caller that keeps its
// Derivations mutates without allocating.
type Derivation struct {
	nodes []derivNode
	text  []byte
}

// derivNode is one nonterminal node: its symbol, its production's index
// within that symbol (as in Grammar.Prods[nt]), the node count of its
// subtree including itself, and the span of text it produces.
type derivNode struct {
	nt, prod, size, lo, hi int32
}

// Flatten lays out the parse tree t of input (from Compiled.Parse) as a
// Derivation producing input[t.Lo:t.Hi].
func (t *Tree) Flatten(input string) *Derivation {
	d := &Derivation{text: []byte(input[t.Lo:t.Hi])}
	d.appendTree(t, t.Lo)
	return d
}

func (d *Derivation) appendTree(t *Tree, base int) {
	k := len(d.nodes)
	d.nodes = append(d.nodes, derivNode{nt: int32(t.NT), prod: int32(t.Prod), lo: int32(t.Lo - base), hi: int32(t.Hi - base)})
	for _, kid := range t.Kids {
		d.appendTree(kid, base)
	}
	d.nodes[k].size = int32(len(d.nodes) - k)
}

// Len returns the number of nodes.
func (d *Derivation) Len() int { return len(d.nodes) }

// NT returns node k's nonterminal.
func (d *Derivation) NT(k int) int { return int(d.nodes[k].nt) }

// Prod returns the index of node k's production within Grammar.Prods[NT(k)].
func (d *Derivation) Prod(k int) int { return int(d.nodes[k].prod) }

// Size returns the number of nodes in node k's subtree, itself included.
func (d *Derivation) Size(k int) int { return int(d.nodes[k].size) }

// Span returns the bounds of the text node k produces, Text()[lo:hi].
func (d *Derivation) Span(k int) (lo, hi int) { return int(d.nodes[k].lo), int(d.nodes[k].hi) }

// Text returns the string the derivation produces. The slice aliases d's
// buffer and is valid until d next changes.
func (d *Derivation) Text() []byte { return d.text }

// CopyFrom makes d a copy of src, reusing d's storage.
func (d *Derivation) CopyFrom(src *Derivation) {
	d.nodes = append(d.nodes[:0], src.nodes...)
	d.text = append(d.text[:0], src.text...)
}

// Splice replaces node k's subtree with the whole of src, whose root must
// derive NT(k) for d to stay a derivation. Every ancestor of k grows by
// the difference in nodes and text, and every later span shifts by the
// difference in text.
func (d *Derivation) Splice(k int, src *Derivation) {
	old := d.nodes[k]
	dNodes := int32(len(src.nodes)) - old.size
	dText := int32(len(src.text)) - (old.hi - old.lo)
	// Walk down from the root: a subtree ending at or before k is skipped
	// whole; one containing k is an ancestor, so grow it and descend.
	for j := 0; j < k; {
		n := &d.nodes[j]
		if j+int(n.size) <= k {
			j += int(n.size)
			continue
		}
		n.size += dNodes
		n.hi += dText
		j++
	}
	d.text = slices.Replace(d.text, int(old.lo), int(old.hi), src.text...)
	d.nodes = slices.Replace(d.nodes, k, k+int(old.size), src.nodes...)
	end := k + len(src.nodes)
	for i := k; i < end; i++ {
		d.nodes[i].lo += old.lo
		d.nodes[i].hi += old.lo
	}
	for i := end; i < len(d.nodes); i++ {
		d.nodes[i].lo += dText
		d.nodes[i].hi += dText
	}
}
