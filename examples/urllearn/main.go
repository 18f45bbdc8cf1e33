// Urllearn learns the URL language of §8.2 from a handful of
// documentation-style seeds, evaluates precision against the oracle, and
// prints the synthesized grammar — the Figure 5 experience at example
// scale.
package main

import (
	"context"
	"fmt"
	"math/rand"

	"glade"
	"glade/internal/targets"
)

func main() {
	tgt := targets.URL()
	rng := rand.New(rand.NewSource(7))
	seeds := append(tgt.DocSeeds, tgt.SampleSeeds(rng, 8)...)
	fmt.Println("Seeds:")
	for _, s := range seeds {
		fmt.Printf("  %s\n", s)
	}

	res, err := glade.LearnContext(context.Background(), seeds, tgt.Oracle, glade.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Println("\nSynthesized grammar:")
	fmt.Println(res.Grammar.Trim())

	// Estimate precision: how many sampled strings does the real oracle
	// accept?
	ok := 0
	const n = 300
	for i := 0; i < n; i++ {
		if tgt.Oracle(glade.Sample(res.Grammar, rng)) {
			ok++
		}
	}
	fmt.Printf("precision over %d samples: %.2f\n", n, float64(ok)/n)

	fmt.Println("\nSome generated URLs:")
	for i := 0; i < 6; i++ {
		fmt.Printf("  %q\n", glade.Sample(res.Grammar, rng))
	}
}
