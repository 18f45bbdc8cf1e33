package cfg

import (
	"sync"
	"sync/atomic"
)

// ladder.go wires the three recognition rungs together behind Accepts:
//
//	DFA prefilter  — O(n) reject-fast filter over a regular superset
//	                 language (prefilter.go); a rejection is final, an
//	                 acceptance hands off.
//	bytecode VM    — exact backtracking recognizer with FIRST guards and
//	                 a step budget (vm.go); definitive verdicts are final,
//	                 budget exhaustion hands off.
//	pooled Earley  — the general recognizer (compiled_earley.go), always
//	                 correct, and the differential reference for the
//	                 rungs above.
//
// Either of the first two rungs may be absent (grammar over the
// construction budgets, or left-recursive for the VM); the ladder simply
// skips missing rungs. Every consumer of Accepts/AcceptsAll — fuzzing,
// campaign triage, service generation validation, the learner's
// phase-2 candidate checks — inherits the ladder.

// Rung identifies which engine of the compiled ladder produced a verdict.
type Rung int32

// The ladder's rungs, in the order Accepts consults them.
const (
	// RungDFA is the regular-approximation prefilter: only ever the
	// source of a rejection.
	RungDFA Rung = iota
	// RungVM is the bytecode backtracking recognizer.
	RungVM
	// RungEarley is the pooled Earley recognizer — the fallback and the
	// differential reference.
	RungEarley
)

// String names the rung for logs and test failures.
func (r Rung) String() string {
	switch r {
	case RungDFA:
		return "dfa"
	case RungVM:
		return "vm"
	case RungEarley:
		return "earley"
	}
	return "unknown"
}

// Accepts reports whether input ∈ L(g), consulting the ladder: DFA
// prefilter, then the bytecode VM, then the Earley recognizer. It is
// allocation-free at steady state and safe for concurrent use.
func (c *Compiled) Accepts(input string) bool {
	ok, _ := c.AcceptsRung(input)
	return ok
}

// AcceptsRung answers membership and reports which rung decided — the
// introspection hook behind the differential tests and perfbench serve's
// per-rung shares (cfg.dfa_share, cfg.earley_share).
func (c *Compiled) AcceptsRung(input string) (bool, Rung) {
	if c.dfa != nil && !c.dfa.mayAccept(input) {
		return false, RungDFA
	}
	if c.vm != nil {
		vsc := c.getVMScratch()
		v := c.runVM(vsc, input)
		c.putVMScratch(vsc)
		if v != vmUnknown {
			return v == vmAccept, RungVM
		}
	}
	return c.AcceptsEarley(input), RungEarley
}

// AcceptsEarley answers membership using only the Earley rung — the
// reference the differential tests hold the other rungs to, and the
// verdict perfbench serve checks every ladder answer against.
func (c *Compiled) AcceptsEarley(input string) bool {
	sc := c.getScratch()
	ok := c.run(sc, input)
	c.putScratch(sc)
	return ok
}

// AcceptsAll answers membership for every input through the ladder using
// at most workers concurrent goroutines, mirroring oracle.Parallel's bulk
// path. Values of workers below 2 run sequentially (still reusing one
// scratch set across the whole batch). The result is index-aligned with
// inputs.
func (c *Compiled) AcceptsAll(inputs []string, workers int) []bool {
	out := make([]bool, len(inputs))
	if workers > len(inputs) {
		workers = len(inputs)
	}
	if workers <= 1 {
		var run ladderRunner
		defer run.release(c)
		for i, in := range inputs {
			out[i] = run.accepts(c, in)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var run ladderRunner
			defer run.release(c)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(inputs) {
					return
				}
				out[i] = run.accepts(c, inputs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// ladderRunner holds lazily acquired scratch state for a batch of ladder
// queries, so a whole AcceptsAll slice shares one scratch set per worker.
type ladderRunner struct {
	esc *earleyScratch
	vsc *vmScratch
}

// accepts runs one ladder query using the runner's scratch.
func (r *ladderRunner) accepts(c *Compiled, in string) bool {
	if c.dfa != nil && !c.dfa.mayAccept(in) {
		return false
	}
	if c.vm != nil {
		if r.vsc == nil {
			r.vsc = c.getVMScratch()
		}
		if v := c.runVM(r.vsc, in); v != vmUnknown {
			return v == vmAccept
		}
	}
	if r.esc == nil {
		r.esc = c.getScratch()
	}
	return c.run(r.esc, in)
}

// release returns any acquired scratch to the pools.
func (r *ladderRunner) release(c *Compiled) {
	if r.esc != nil {
		c.putScratch(r.esc)
	}
	if r.vsc != nil {
		c.putVMScratch(r.vsc)
	}
}
