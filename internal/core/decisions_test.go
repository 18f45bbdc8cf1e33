package core

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glade/internal/cfg"
	"glade/internal/oracle"
	"glade/internal/targets"
)

var updateDecisions = flag.Bool("update-decisions", false, "rewrite testdata/decisions.txt from the current learner")

// decisionSeeds draws seed set k for target t: seeds from t.SampleSeeds
// with a fixed rng, skipping any that would take the seed text past 56
// bytes, until the text reaches 24+3k bytes.
func decisionSeeds(t *targets.Target, k int) []string {
	rng := rand.New(rand.NewSource(int64(k + 1)))
	var seeds []string
	total := 0
	for _, s := range t.SampleSeeds(rng, 32) {
		if total+len(s) > 56 {
			continue
		}
		seeds = append(seeds, s)
		if total += len(s); total >= 24+3*k {
			break
		}
	}
	return seeds
}

// decisionLine learns one case and renders what the learner decided: the
// grammar's digest and the counters of the scans. Counters of oracle
// traffic (queries, cache hits, waves, discarded checks) are left out on
// purpose: they depend on how checks reach the oracle, not on what the
// learner decides.
func decisionLine(t *testing.T, tgt *targets.Target, k, workers int) string {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	res, err := Learn(context.Background(), decisionSeeds(tgt, k), oracle.AsCheck(tgt.Oracle), opts)
	if err != nil {
		t.Fatalf("%s set=%d workers=%d: %v", tgt.Name, k, workers, err)
	}
	s := res.Stats
	return fmt.Sprintf("%s set=%d workers=%d grammar=%x checks=%d candidates=%d chargen_checks=%d merge_pairs=%d merged=%d seeds_skipped=%d",
		tgt.Name, k, workers, sha256.Sum256([]byte(cfg.Marshal(res.Grammar))),
		s.Checks, s.Candidates, s.CharGenChecks, s.MergePairs, s.Merged, s.SeedsSkipped)
}

// TestLearnerDecisions pins every decision the learner makes on the four
// §8.2 targets × 10 seed sets (24–56 bytes of seed text each) at Workers 1
// and 4: the learned grammar and the scan counters must match
// testdata/decisions.txt exactly. The counters count scan decisions, not
// oracle queries, so a perturbed decision shows here even where the sed and
// xml goldens would miss it.
//
// The file was produced by copying this test into a checkout of the commit
// before passes tested membership ahead of the oracle, and running
//
//	go test ./internal/core -run TestLearnerDecisions -update-decisions
//
// there. Reordering how checks reach the oracle must leave it unchanged.
func TestLearnerDecisions(t *testing.T) {
	if testing.Short() {
		t.Skip("80 learns")
	}
	var got []string
	for _, tgt := range targets.All() {
		for k := 0; k < 10; k++ {
			for _, workers := range []int{1, 4} {
				got = append(got, decisionLine(t, tgt, k, workers))
			}
		}
	}
	path := filepath.Join("testdata", "decisions.txt")
	if *updateDecisions {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("fixture has %d cases, the test learns %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("decision drift:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
