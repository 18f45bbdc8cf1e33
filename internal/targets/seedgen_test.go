package targets

import (
	"math/rand"
	"testing"

	"glade/internal/cfg"
)

// TestSeedGenProducesValidInputs: every generated realistic seed must be in
// the target language under both definitions.
func TestSeedGenProducesValidInputs(t *testing.T) {
	for _, tgt := range All() {
		if tgt.SeedGen == nil {
			t.Fatalf("%s: no SeedGen", tgt.Name)
		}
		c := cfg.Compile(tgt.Grammar)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			s := tgt.SeedGen(rng)
			if !tgt.Oracle(s) {
				t.Fatalf("%s: oracle rejects generated seed %q", tgt.Name, s)
			}
			if !c.Accepts(s) {
				t.Fatalf("%s: grammar rejects generated seed %q", tgt.Name, s)
			}
		}
	}
}
