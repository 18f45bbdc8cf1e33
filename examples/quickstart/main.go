// Quickstart walks the paper's running example (Figures 1-3): starting from
// the single seed <a>hi</a> and a membership oracle for the XML-like
// language A → (a + ... + z + <a>A</a>)*, GLADE synthesizes the full
// recursive grammar, printing every generalization step along the way.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"glade"
)

// valid recognizes L(CXML) from Figure 1 of the paper.
func valid(s string) bool {
	depth := 0
	for i := 0; i < len(s); {
		switch {
		case strings.HasPrefix(s[i:], "<a>"):
			depth++
			i += 3
		case strings.HasPrefix(s[i:], "</a>"):
			depth--
			if depth < 0 {
				return false
			}
			i += 4
		case s[i] >= 'a' && s[i] <= 'z':
			i++
		default:
			return false
		}
	}
	return depth == 0
}

func main() {
	opts := glade.DefaultOptions()
	opts.Logf = func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) }

	fmt.Println("Learning from seed \"<a>hi</a>\" (Figure 2 trace):")
	res, err := glade.LearnContext(context.Background(), []string{"<a>hi</a>"},
		glade.OracleFunc(valid), opts)
	if err != nil {
		panic(err)
	}

	fmt.Println("\nSynthesized grammar:")
	fmt.Println(res.Grammar.Trim())
	fmt.Printf("Stats: %d oracle queries, %d candidates, %d merges, %v\n\n",
		res.Stats.OracleQueries, res.Stats.Candidates, res.Stats.Merged, res.Stats.Duration)

	// The learned language is recursive: nested tags parse even though the
	// seed had none.
	c := glade.Compile(res.Grammar)
	for _, s := range []string{"<a><a>deep</a></a>", "xyz", "<a>", "<b></b>"} {
		fmt.Printf("  parses %-22q = %v (oracle: %v)\n", s, c.Accepts(s), valid(s))
	}

	fmt.Println("\nSamples from the synthesized grammar:")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		fmt.Printf("  %q\n", glade.Sample(res.Grammar, rng))
	}
}
