package core

import (
	"context"
	"strings"
	"testing"

	"glade/internal/cfg"
	"glade/internal/oracle"
	"glade/internal/programs"
	"glade/internal/rex"
	"glade/internal/targets"
)

// figure1XML recognizes L(CXML) from Figure 1 of the paper: the XML-like
// language A → (a + ... + z + <a>A</a>)*. It is pure, hence trivially safe
// for concurrent oracle queries.
func figure1XML(s string) bool {
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

// learnFingerprint runs Learn and renders everything the caller could
// observe about the synthesized language: the grammar and the intermediate
// regular expression.
func learnFingerprint(t *testing.T, seeds []string, o oracle.CheckOracle, opts Options) string {
	t.Helper()
	res, err := Learn(context.Background(), seeds, o, opts)
	if err != nil {
		t.Fatalf("Learn(Workers=%d): %v", opts.Workers, err)
	}
	return cfg.Marshal(res.Grammar) + "\n---\n" + rex.String(res.Regex)
}

// TestParallelDeterminism is the contract of Options.Workers: the same
// RandSeed and the same seeds must synthesize a byte-identical grammar at
// Workers=1 and Workers=8 — parallelism prefetches checks but never
// reorders decisions. Run under -race this also exercises the concurrent
// oracle stack end to end.
func TestParallelDeterminism(t *testing.T) {
	seeds := []string{"<a>hi</a>", "xyz<a>q</a>"}
	opts := DefaultOptions()

	base := learnFingerprint(t, seeds, oracle.Func(figure1XML), opts)
	for _, workers := range []int{2, 8} {
		po := opts
		po.Workers = workers
		got := learnFingerprint(t, seeds, oracle.Func(figure1XML), po)
		if got != base {
			t.Errorf("Workers=%d synthesized a different language:\n--- Workers=1 ---\n%s\n--- Workers=%d ---\n%s",
				workers, base, workers, got)
		}
	}
}

// TestParallelDeterminismPrograms repeats the determinism contract on two
// simulated programs of §8.3 (sed and the XML parser) learned from their
// bundled seeds.
func TestParallelDeterminismPrograms(t *testing.T) {
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
			seeds = seeds[:4] // keep the test fast; determinism needs no scale
		}
		opts := DefaultOptions()
		base := learnFingerprint(t, seeds, o, opts)
		opts.Workers = 8
		if got := learnFingerprint(t, seeds, o, opts); got != base {
			t.Errorf("%s: Workers=8 grammar differs from Workers=1", name)
		}
	}
}

// TestParallelStatsConsistent checks the query accounting of the §4.3
// check discipline on several §8.2 seed sets. A check is either discarded
// as a member of L̂i, and never reaches the memo, or looked up in the memo
// exactly once. At Workers=1 the only other lookups are the seeds', so the
// accounting is exact; above 1, speculative waves add lookups the scan may
// never consult.
func TestParallelStatsConsistent(t *testing.T) {
	for _, tgt := range targets.All() {
		for k := 0; k < 3; k++ {
			seeds := decisionSeeds(tgt, k)
			for _, workers := range []int{1, 8} {
				opts := DefaultOptions()
				opts.Workers = workers
				res, err := Learn(context.Background(), seeds, tgt.Oracle, opts)
				if err != nil {
					t.Fatalf("%s set=%d workers=%d: %v", tgt.Name, k, workers, err)
				}
				s := res.Stats
				if s.Checks == 0 || s.CharGenChecks == 0 || s.OracleQueries == 0 || s.DiscardedChecks == 0 {
					t.Fatalf("%s set=%d workers=%d recorded no checks, queries or discards: %+v", tgt.Name, k, workers, s)
				}
				lookups := s.OracleQueries + s.CacheHits
				if workers == 1 {
					if want := s.Checks - s.DiscardedChecks + len(seeds); lookups != want {
						t.Errorf("%s set=%d workers=1: queries+hits = %d, want checks-discarded+seeds = %d: %+v",
							tgt.Name, k, lookups, want, s)
					}
				} else if lookups+s.DiscardedChecks < s.Checks {
					t.Errorf("%s set=%d workers=%d: queries+hits+discarded = %d < checks = %d: %+v",
						tgt.Name, k, workers, lookups+s.DiscardedChecks, s.Checks, s)
				}
			}
		}
	}
}
