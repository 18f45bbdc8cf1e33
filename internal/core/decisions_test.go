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
	"glade/internal/targets"
)

var updateDecisions = flag.Bool("update-decisions", false, "rewrite testdata/decisions.txt and testdata/traffic.txt from the current learner")

// decisionSeeds draws seed set k for target t from a fixed rng: at least
// 24+3k bytes of seed text, where the draw allows, and at most 56.
func decisionSeeds(t *targets.Target, k int) []string {
	return drawSeeds(t, rand.New(rand.NewSource(int64(k+1))), 24+3*k, 56)
}

// drawSeeds draws seeds from t.SampleSeeds with rng, skipping any that
// would take the seed text past limit bytes, until the text reaches size
// bytes.
func drawSeeds(t *targets.Target, rng *rand.Rand, size, limit int) []string {
	var seeds []string
	total := 0
	for _, s := range t.SampleSeeds(rng, 32) {
		if total+len(s) > limit {
			continue
		}
		seeds = append(seeds, s)
		if total += len(s); total >= size {
			break
		}
	}
	return seeds
}

// learnCase learns seed set k of target tgt at the given worker count with
// the default options.
func learnCase(t *testing.T, tgt *targets.Target, k, workers int) *Result {
	t.Helper()
	opts := DefaultOptions()
	opts.Workers = workers
	res, err := Learn(context.Background(), decisionSeeds(tgt, k), tgt.Oracle, opts)
	if err != nil {
		t.Fatalf("%s set=%d workers=%d: %v", tgt.Name, k, workers, err)
	}
	return res
}

// decisionLine learns one case and renders what the learner decided: the
// grammar's digest and the counters of the scans. Counters of oracle
// traffic (queries, cache hits, waves, discarded checks) are left out on
// purpose: they depend on how checks reach the oracle, not on what the
// learner decides. TestLearnerTraffic pins those.
func decisionLine(t *testing.T, tgt *targets.Target, k, workers int) string {
	t.Helper()
	res := learnCase(t, tgt, k, workers)
	s := res.Stats
	return fmt.Sprintf("%s set=%d workers=%d grammar=%x checks=%d candidates=%d chargen_checks=%d merge_pairs=%d merged=%d seeds_skipped=%d",
		tgt.Name, k, workers, sha256.Sum256([]byte(cfg.Marshal(res.Grammar))),
		s.Checks, s.Candidates, s.CharGenChecks, s.MergePairs, s.Merged, s.SeedsSkipped)
}

// trafficLine learns one case and renders how its checks reached the
// oracle: queries issued, checks answered from memory, speculative waves,
// and member checks discarded without a query.
func trafficLine(t *testing.T, tgt *targets.Target, k, workers int) string {
	t.Helper()
	s := learnCase(t, tgt, k, workers).Stats
	return fmt.Sprintf("%s set=%d workers=%d queries=%d cache_hits=%d waves=%d discarded_checks=%d",
		tgt.Name, k, workers, s.OracleQueries, s.CacheHits, s.Waves, s.DiscardedChecks)
}

// decisionCases renders line for the four §8.2 targets × 10 seed sets at
// Workers 1 and 4.
func decisionCases(t *testing.T, line func(*testing.T, *targets.Target, int, int) string) []string {
	var got []string
	for _, tgt := range targets.All() {
		for k := 0; k < 10; k++ {
			for _, workers := range []int{1, 4} {
				got = append(got, line(t, tgt, k, workers))
			}
		}
	}
	return got
}

// matchFixture compares got line by line with testdata/name, or rewrites
// the file under -update-decisions.
func matchFixture(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Fatalf("%s has %d cases, the test learns %d", name, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s drift:\n got %s\nwant %s", name, got[i], want[i])
		}
	}
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
	matchFixture(t, "decisions.txt", decisionCases(t, decisionLine))
}

// TestLearnerTraffic pins how the checks of the same 80 learns reach the
// oracle: queries issued, cache hits, speculative waves and discarded
// member checks must match testdata/traffic.txt exactly. Where
// TestLearnerDecisions shows that a change kept every decision, this test
// shows that it also kept every query, as a change to the learner's memo
// or wave bookkeeping alone must.
//
// The file was produced by copying this test into an archive copy
// (git archive) of the commit before the learner owned its verdict memo,
// and running
//
//	go test ./internal/core -run TestLearnerTraffic -update-decisions
//
// there. Only a change that deliberately alters how checks reach the
// oracle may regenerate it.
func TestLearnerTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("80 learns")
	}
	matchFixture(t, "traffic.txt", decisionCases(t, trafficLine))
}
