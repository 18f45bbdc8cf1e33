package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"glade/internal/cfg"
	"glade/internal/oracle"
	"glade/internal/programs"
)

// TestGoldenGrammars pins the grammars learned for sed and xml at Workers 1
// and 8 byte-for-byte to the committed testdata goldens. Any drift means a
// change to the oracle stack or the learner altered a decision the §4.2
// scan makes.
//
// Each learn runs a second time through a FaultInjector that fails ~10% of
// attempts with transient errors, wrapped in Resilient. A retry never
// changes a verdict, so the grammar must still equal the golden; the test
// also requires that retries happened and that the breaker never opened.
// The fault schedule is a pure function of (seed, input, attempt) and the
// learner asks each check once, so the run is deterministic.
//
// The learner itself never calls the recognition ladder; the ladder's
// verdicts on the learned grammar are checked against the Earley rung
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
				t.Errorf("%s workers=%d: grammar drifted from the golden (%s)", name, workers, golden)
			}
			assertLadderSound(t, fmt.Sprintf("%s workers=%d", name, workers), res.Grammar, seeds)

			faulty := oracle.NewResilient(
				oracle.NewFaultInjector(o, oracle.FaultOptions{Seed: 1, TransientRate: 0.10}),
				oracle.ResilientOptions{
					Retry: oracle.RetryPolicy{MaxAttempts: 8, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond},
					// Any success resets the breaker's failure streak, and
					// 32 failures in a row at a 10% fault rate do not occur:
					// the breaker's bookkeeping runs without tripping it.
					Breaker: oracle.BreakerPolicy{Threshold: 32},
					Workers: workers,
				})
			res, err = Learn(context.Background(), seeds, faulty, opts)
			if err != nil {
				t.Fatalf("%s workers=%d aborted under fault injection: %v", name, workers, err)
			}
			if got := cfg.Marshal(res.Grammar); got != string(want) {
				t.Errorf("%s workers=%d: grammar drifted under fault injection (%s): a retry changed a verdict", name, workers, golden)
			}
			st := faulty.Stats()
			if st.Retries == 0 {
				t.Errorf("%s workers=%d: no retries under fault injection: the injector never fired", name, workers)
			}
			if st.BreakerOpens != 0 || st.State != "closed" {
				t.Errorf("%s workers=%d: breaker opened %d times, state %s; want 0 opens, closed", name, workers, st.BreakerOpens, st.State)
			}
		}
	}
}

// assertLadderSound checks each rung of the compiled recognition ladder
// against the Earley rung on a small mixed corpus for the learned grammar.
// Identical verdicts cover the prefilter's soundness contract too: a DFA
// rejection of an input Earley accepts would show as a disagreement. (The
// cfg package's differential suite checks the Earley rung itself against a
// map-based reference parser on the same golden grammars.)
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
	}
}
