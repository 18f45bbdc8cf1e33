package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"glade/internal/cfg"
	"glade/internal/oracle"
	"glade/internal/programs"
)

// TestGoldenGrammars is the migration guarantee of the context/verdict
// plumbing: the grammars learned for sed and xml at Workers 1 and 8 must be
// byte-identical to the ones the pre-migration engine synthesized (the
// committed testdata goldens). Any drift means the oracle stack changed
// a decision the §4.2 scan makes, which the API redesign must never do.
// The learner itself never calls the recognition ladder; the ladder's
// verdicts on the learned grammar are checked against the reference parser
// below.
func TestGoldenGrammars(t *testing.T) {
	if testing.Short() {
		t.Skip("full program learning")
	}
	for _, name := range []string{"sed", "xml"} {
		p := programs.ByName(name)
		if p == nil {
			t.Fatalf("program %q missing", name)
		}
		o := oracle.Func(func(s string) bool { return p.Run(s).OK })
		seeds := p.Seeds()
		if len(seeds) > 4 {
			seeds = seeds[:4] // matches the committed goldens
		}
		for _, workers := range []int{1, 8} {
			golden := filepath.Join("testdata", fmt.Sprintf("golden_%s_w%d.grammar", name, workers))
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			opts := DefaultOptions()
			opts.Workers = workers
			res, err := Learn(context.Background(), seeds, o, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if got := cfg.Marshal(res.Grammar); got != string(want) {
				t.Errorf("%s workers=%d: grammar drifted from the pre-migration golden (%s)", name, workers, golden)
			}
			assertLadderSound(t, fmt.Sprintf("%s workers=%d", name, workers), res.Grammar, seeds)
		}
	}
}

// assertLadderSound checks each rung of the compiled recognition ladder
// against the Earley rung on a small mixed corpus for the learned grammar:
// identical verdicts overall, and — the prefilter's soundness contract —
// no DFA rejection of an input Earley accepts. (The cfg package's
// differential suite checks the Earley rung itself against a map-based
// reference parser on the same golden grammars.)
func assertLadderSound(t *testing.T, name string, g *cfg.Grammar, seeds []string) {
	t.Helper()
	comp := cfg.Compile(g)
	corpus := append([]string(nil), seeds...)
	corpus = append(corpus, "", "x", "<<<", "s/a/b/", "<a>text</a>")
	for _, s := range seeds {
		if len(s) > 1 {
			corpus = append(corpus, s[1:], s[:len(s)-1], s+s)
		}
	}
	for _, in := range corpus {
		want := comp.AcceptsEarley(in)
		if got, rung := comp.AcceptsRung(in); got != want {
			t.Errorf("%s: ladder says %v via %s rung, the Earley rung says %v for %q", name, got, rung, want, in)
		}
		if comp.PrefilterRejects(in) && want {
			t.Errorf("%s: DFA prefilter rejects %q, which the Earley rung accepts", name, in)
		}
	}
}
