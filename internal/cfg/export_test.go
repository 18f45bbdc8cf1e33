package cfg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

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
