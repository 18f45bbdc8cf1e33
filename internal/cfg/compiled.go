package cfg

import (
	"math"
	"sync"

	"glade/internal/bytesets"
)

// Compiled is a grammar lowered into a flat, contiguous intermediate
// representation for the throughput workloads of §8: batch membership
// checking and high-volume sampling. Where Grammar is a pointer-rich
// structure convenient to build and transform, Compiled interns everything
// into index tables —
//
//   - every production's symbols live in one shared arena slice, with
//     per-production offsets and per-nonterminal production ranges;
//   - terminal byte classes are deduplicated into a 256-bit bitmap table;
//   - nullability, minimal derivation depth, per-production derivation
//     cost, and FIRST-byte sets are precomputed once —
//
// so the recognizer and sampler run over dense int32 slices with no
// pointer chasing, no map lookups, and no per-call bookkeeping
// allocations. A Compiled is immutable after Compile (except MaxDepth,
// which callers may set before sharing it) and safe for concurrent use:
// Accepts, AcceptsAll, Parse, Sample, and SampleInto (each caller with its
// own Derivation) may all be called from any number of goroutines, with
// per-call scratch state drawn from an internal sync.Pool.
type Compiled struct {
	start int32
	names []string // nonterminal names, for error messages only

	// arena holds every production's symbols back to back: a value >= 0 is
	// a nonterminal index, a value < 0 is ^i for an index i into classes.
	arena   []int32
	classes []bytesets.Set

	// Production p (a global index) owns arena[prodOff[p]:prodOff[p+1]]
	// and belongs to nonterminal prodNT[p]. Nonterminal nt owns the
	// production range [ntProd[nt], ntProd[nt+1]) — productions are laid
	// out grouped by owner, in Grammar order, so a production's index
	// within its nonterminal is p - ntProd[nt].
	prodOff []int32
	prodNT  []int32
	ntProd  []int32

	// nullable[nt] reports nt ⇒* ε. minDepth[nt] is the height of nt's
	// shallowest derivation tree (unboundedCost when unproductive), and
	// prodCost[p] = 1 + max over p's nonterminal symbols of minDepth —
	// the tables behind the sampler's depth budgeting.
	nullable []bool
	minDepth []int32
	prodCost []int32

	// prodFirst[p] is the set of bytes a derivation from production p can
	// start with; prodNullable[p] reports whether p's whole right-hand
	// side derives ε. Together they let the recognizer skip predicting
	// productions that can neither match the next input byte nor vanish.
	prodFirst    []bytesets.Set
	prodNullable []bool

	// MaxDepth is the sampling depth budget (see compiled_sample.go). It
	// defaults to DefaultSampleDepth; adjust it before sharing the Compiled
	// across goroutines.
	MaxDepth int

	// The recognition ladder (see ladder.go): dfa is the reject-fast
	// regular-approximation prefilter, vm the lowered bytecode program.
	// Either may be nil when the grammar exceeds its construction budget
	// (or, for vm, is left-recursive); Accepts skips missing rungs.
	dfa *prefilter
	vm  *vmProgram

	scratch   sync.Pool // *earleyScratch
	vmScratch sync.Pool // *vmScratch
}

// unboundedCost marks unproductive nonterminals in the int32 depth tables.
const unboundedCost = math.MaxInt32

// Compile lowers g into its flat intermediate representation. The grammar
// is deep-copied into the IR, so later mutations of g do not affect the
// Compiled.
func Compile(g *Grammar) *Compiled {
	numNT := g.NumNT()
	c := &Compiled{
		start:    int32(g.Start),
		names:    append([]string(nil), g.Names...),
		MaxDepth: DefaultSampleDepth,
		nullable: g.Nullable(),
		ntProd:   make([]int32, numNT+1),
	}
	classIdx := map[bytesets.Set]int32{}
	for nt, prods := range g.Prods {
		c.ntProd[nt] = int32(len(c.prodNT))
		for _, p := range prods {
			c.prodOff = append(c.prodOff, int32(len(c.arena)))
			c.prodNT = append(c.prodNT, int32(nt))
			for _, s := range p {
				if s.IsNT() {
					c.arena = append(c.arena, int32(s.NT))
					continue
				}
				ci, ok := classIdx[s.Set]
				if !ok {
					ci = int32(len(c.classes))
					c.classes = append(c.classes, s.Set)
					classIdx[s.Set] = ci
				}
				c.arena = append(c.arena, ^ci)
			}
		}
	}
	c.ntProd[numNT] = int32(len(c.prodNT))
	c.prodOff = append(c.prodOff, int32(len(c.arena)))
	c.computeDepths()
	c.computeFirst()
	// Build the ladder's optional rungs last: the prefilter snapshots the
	// byte-class tables before VM lowering interns its union and guard
	// classes.
	c.dfa = c.buildPrefilter()
	c.vm = c.lowerVM()
	return c
}

// NumNT returns the number of nonterminals.
func (c *Compiled) NumNT() int { return len(c.ntProd) - 1 }

// Start returns the start nonterminal's index.
func (c *Compiled) Start() int { return int(c.start) }

// numProds returns the total number of productions.
func (c *Compiled) numProds() int { return len(c.prodNT) }

// prodLen returns the number of symbols on production p's right-hand side.
func (c *Compiled) prodLen(p int32) int { return int(c.prodOff[p+1] - c.prodOff[p]) }

// computeDepths fills minDepth and prodCost by a fixed point over the
// productions.
func (c *Compiled) computeDepths() {
	c.minDepth = make([]int32, c.NumNT())
	for i := range c.minDepth {
		c.minDepth[i] = unboundedCost
	}
	for changed := true; changed; {
		changed = false
		for p := 0; p < c.numProds(); p++ {
			cost := c.costOf(int32(p))
			if cost < c.minDepth[c.prodNT[p]] {
				c.minDepth[c.prodNT[p]] = cost
				changed = true
			}
		}
	}
	c.prodCost = make([]int32, c.numProds())
	for p := 0; p < c.numProds(); p++ {
		c.prodCost[p] = c.costOf(int32(p))
	}
}

// costOf returns 1 + the max minDepth over production p's nonterminal
// symbols, or unboundedCost if any of them is unproductive.
func (c *Compiled) costOf(p int32) int32 {
	cost := int32(1)
	for i := c.prodOff[p]; i < c.prodOff[p+1]; i++ {
		s := c.arena[i]
		if s < 0 {
			continue
		}
		d := c.minDepth[s]
		if d == unboundedCost {
			return unboundedCost
		}
		if d+1 > cost {
			cost = d + 1
		}
	}
	return cost
}

// computeFirst fills prodFirst and prodNullable from the per-nonterminal
// FIRST-byte fixed point.
func (c *Compiled) computeFirst() {
	first := make([]bytesets.Set, c.NumNT())
	for changed := true; changed; {
		changed = false
		for p := 0; p < c.numProds(); p++ {
			nt := c.prodNT[p]
			f := first[nt].Union(c.firstOf(int32(p), first))
			if !f.Equal(first[nt]) {
				first[nt] = f
				changed = true
			}
		}
	}
	c.prodFirst = make([]bytesets.Set, c.numProds())
	c.prodNullable = make([]bool, c.numProds())
	for p := 0; p < c.numProds(); p++ {
		c.prodFirst[p] = c.firstOf(int32(p), first)
		c.prodNullable[p] = c.epsilonOf(int32(p))
	}
}

// firstOf returns the FIRST-byte set of production p under the given
// per-nonterminal FIRST sets: the union over the nullable prefix of p's
// symbols, stopping after the first non-nullable one.
func (c *Compiled) firstOf(p int32, first []bytesets.Set) bytesets.Set {
	var f bytesets.Set
	for i := c.prodOff[p]; i < c.prodOff[p+1]; i++ {
		s := c.arena[i]
		if s < 0 {
			return f.Union(c.classes[^s])
		}
		f = f.Union(first[s])
		if !c.nullable[s] {
			break
		}
	}
	return f
}

// epsilonOf reports whether production p's whole right-hand side derives ε.
func (c *Compiled) epsilonOf(p int32) bool {
	for i := c.prodOff[p]; i < c.prodOff[p+1]; i++ {
		s := c.arena[i]
		if s < 0 || !c.nullable[s] {
			return false
		}
	}
	return true
}
