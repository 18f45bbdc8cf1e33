package cfg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// Equal reports whether two grammars are structurally identical up to
// nonterminal numbering (names and production order must match).
func Equal(a, b *Grammar) bool {
	return canonical(a) == canonical(b)
}

func canonical(g *Grammar) string {
	lines := strings.Split(strings.TrimSpace(Marshal(g)), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// HasPrefilter reports whether the regular-approximation DFA was built
// (grammars over the state/work budgets run without one).
func (c *Compiled) HasPrefilter() bool { return c.dfa != nil }

// HasVM reports whether the grammar lowered to bytecode (left-recursive
// or oversized grammars fall back to Earley).
func (c *Compiled) HasVM() bool { return c.vm != nil }

// PrefilterRejects reports whether the DFA prefilter alone rejects input.
// By the soundness contract this implies input ∉ L(g); the differential
// suite pins that direction explicitly.
func (c *Compiled) PrefilterRejects(input string) bool {
	return c.dfa != nil && !c.dfa.mayAccept(input)
}

// PrefilterDigest returns the sha256 of c's prefilter DFA tables — width,
// start, byte classes, transitions and accept bits, little-endian — or
// "none" when Compile built no prefilter. Two builds of the same DFA, down
// to its state numbering, have the same digest.
func PrefilterDigest(c *Compiled) string {
	d := c.dfa
	if d == nil {
		return "none"
	}
	h := sha256.New()
	for _, v := range []any{d.width, d.start, d.cls, d.delta, d.accept} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
