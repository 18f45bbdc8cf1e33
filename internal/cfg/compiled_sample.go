package cfg

import (
	"math/rand"
	"sync"
)

// The compiled sampler draws strings by the procedure of §8.1: the grammar
// is a probabilistic CFG with the uniform distribution over each
// nonterminal's productions, expanded top down. Uniform expansion of a
// recursive grammar diverges with positive probability, so expansion runs
// under a depth budget (MaxDepth): a nonterminal picks uniformly among the
// productions whose derivation cost fits the remaining budget, and among
// the cheapest ones when none fits, which guarantees termination without
// skewing shallow samples. Each choice consumes one Intn over the
// candidate count, in production order, then one Intn per terminal byte.
// No candidate slice is materialized per expansion, and string assembly
// goes through a pooled byte buffer, so a steady-state Sample allocates
// only the returned string.

// DefaultSampleDepth is the sampling depth budget used throughout the
// repository when a caller has no reason to choose otherwise: deep enough
// that the depth-bounded fallback rarely engages on the grammars GLADE
// learns, shallow enough that recursion-heavy grammars still terminate
// quickly. The grammar fuzzer, the facade conveniences, and the bench
// suite all share this value.
const DefaultSampleDepth = 24

// sampleBufs pools the output buffers of Sample/SampleFrom across all
// Compiled grammars.
var sampleBufs = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// Sample draws one string from the start symbol. It panics if the start
// symbol is unproductive. It is safe for concurrent use with distinct
// rngs.
func (c *Compiled) Sample(rng *rand.Rand) string {
	return c.SampleFrom(rng, int(c.start))
}

// SampleFrom draws one string derived from nonterminal nt.
func (c *Compiled) SampleFrom(rng *rand.Rand, nt int) string {
	if c.minDepth[nt] == unboundedCost {
		panic("cfg: sampling from unproductive nonterminal " + c.names[nt])
	}
	bp := sampleBufs.Get().(*[]byte)
	buf := c.appendSample((*bp)[:0], rng, int32(nt), c.MaxDepth)
	s := string(buf)
	*bp = buf
	sampleBufs.Put(bp)
	return s
}

// pickProd chooses a production of nt uniformly among those whose
// derivation cost fits the budget, falling back to the minimal-cost group
// when none fits, by counting over the cost table instead of building a
// slice.
func (c *Compiled) pickProd(rng *rand.Rand, nt int32, budget int) int32 {
	lo, hi := c.ntProd[nt], c.ntProd[nt+1]
	count := 0
	for p := lo; p < hi; p++ {
		if int(c.prodCost[p]) <= budget {
			count++
		}
	}
	if count == 0 {
		best := int32(unboundedCost)
		for p := lo; p < hi; p++ {
			if c.prodCost[p] < best {
				best = c.prodCost[p]
			}
		}
		for p := lo; p < hi; p++ {
			if c.prodCost[p] == best {
				count++
			}
		}
		k := rng.Intn(count)
		for p := lo; ; p++ {
			if c.prodCost[p] == best {
				if k == 0 {
					return p
				}
				k--
			}
		}
	}
	k := rng.Intn(count)
	for p := lo; ; p++ {
		if int(c.prodCost[p]) <= budget {
			if k == 0 {
				return p
			}
			k--
		}
	}
}

// appendSample expands nt under the budget, appending the produced bytes
// to buf.
func (c *Compiled) appendSample(buf []byte, rng *rand.Rand, nt int32, budget int) []byte {
	p := c.pickProd(rng, nt, budget)
	for i := c.prodOff[p]; i < c.prodOff[p+1]; i++ {
		s := c.arena[i]
		if s >= 0 {
			buf = c.appendSample(buf, rng, s, budget-1)
			continue
		}
		set := c.classes[^s]
		buf = append(buf, set.Pick(rng.Intn(set.Len())))
	}
	return buf
}

// SampleInto draws a random derivation from nonterminal nt into d,
// replacing d's contents — the grammar fuzzer's subtree-resampling
// primitive. It consumes the rng exactly as SampleFrom does, so d's text
// is the string SampleFrom would have returned; it allocates only when d
// must grow.
func (c *Compiled) SampleInto(d *Derivation, rng *rand.Rand, nt int) {
	if c.minDepth[nt] == unboundedCost {
		panic("cfg: sampling from unproductive nonterminal " + c.names[nt])
	}
	d.nodes, d.text = d.nodes[:0], d.text[:0]
	c.appendDeriv(d, rng, int32(nt), c.MaxDepth)
}

// appendDeriv is appendSample that also records each expanded node, in
// preorder, with its subtree size and span.
func (c *Compiled) appendDeriv(d *Derivation, rng *rand.Rand, nt int32, budget int) {
	p := c.pickProd(rng, nt, budget)
	k := len(d.nodes)
	d.nodes = append(d.nodes, derivNode{nt: nt, prod: p - c.ntProd[nt], lo: int32(len(d.text))})
	for i := c.prodOff[p]; i < c.prodOff[p+1]; i++ {
		s := c.arena[i]
		if s >= 0 {
			c.appendDeriv(d, rng, s, budget-1)
			continue
		}
		set := c.classes[^s]
		d.text = append(d.text, set.Pick(rng.Intn(set.Len())))
	}
	d.nodes[k].size = int32(len(d.nodes) - k)
	d.nodes[k].hi = int32(len(d.text))
}
