package core

import (
	"context"
	"math/rand"
	"testing"

	"glade/internal/targets"
)

// benchSets is the number of seed sets each BenchmarkLearn target cycles
// through, and benchSeedBytes the seed text of each set.
const (
	benchSets      = 16
	benchSeedBytes = 32
)

// BenchmarkLearn times one Workers=1 learn of xml or lisp with the default
// options, from about 32 bytes of seed text: the shape of the learn
// workload in perfbench, without building it. Each operation learns the
// next of benchSets seed sets drawn with a fixed rng, so the learner's CPU
// time and allocations dominate; the in-process oracles cost little.
func BenchmarkLearn(b *testing.B) {
	for _, name := range []string{"xml", "lisp"} {
		tgt := targets.ByName(name)
		rng := rand.New(rand.NewSource(1))
		sets := make([][]string, benchSets)
		for i := range sets {
			sets[i] = drawSeeds(tgt, rng, benchSeedBytes, benchSeedBytes+benchSeedBytes/8)
		}
		o := tgt.Oracle
		opts := DefaultOptions()
		opts.Workers = 1
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Learn(context.Background(), sets[i%benchSets], o, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
