package main

import (
	"context"
	"os"
	"reflect"
	"testing"
)

// TestMain lets the test binary serve as the learn-exec exec oracle, as
// the benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "oracle" {
		os.Exit(stdinOracle(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// fingerprint is everything a run's work is made of that must repeat
// exactly for a given seed.
type fingerprint struct {
	ops      any
	queries  []int
	digests  []string
	verdicts any
}

func testConfig(t *testing.T, seed int64) runConfig {
	return runConfig{seed: seed, seconds: 1, dir: t.TempDir()}
}

func learnFingerprint(t *testing.T, seed int64) fingerprint {
	ops := learnOps(seed, 4)
	fp := fingerprint{ops: ops}
	for i, op := range ops {
		out := learnOnce(context.Background(), op, nil)
		if out.err != nil {
			t.Fatal(out.err)
		}
		if err := checkLearn(seed, i, op, out.res.Grammar); err != nil {
			t.Fatal(err)
		}
		fp.queries = append(fp.queries, out.res.Stats.OracleQueries)
		fp.digests = append(fp.digests, digest(out.res.Grammar))
	}
	return fp
}

func learnExecFingerprint(t *testing.T, seed int64) fingerprint {
	ctx := context.Background()
	st, err := newLearnExecState(ctx, testConfig(t, seed), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	fp := fingerprint{ops: st.jobs}
	outs, _ := st.pass(ctx, st.jobs)
	checks, err := st.summary(ctx, st.jobs, outs)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range checks {
		fp.queries = append(fp.queries, c.seqQueries)
		fp.digests = append(fp.digests, textDigest(outs[i].text))
	}
	return fp
}

func serveFingerprint(t *testing.T, seed int64) fingerprint {
	ctx := context.Background()
	st, err := newServeState(ctx, testConfig(t, seed), 1, 24, false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	res, _ := st.pass(ctx, st.seqs)
	if _, err := st.summary(res); err != nil {
		t.Fatal(err)
	}
	fp := fingerprint{ops: st.seqs}
	var verdicts [][][]bool
	for _, g := range st.grammars {
		verdicts = append(verdicts, g.want)
		fp.digests = append(fp.digests, g.digest)
	}
	fp.verdicts = verdicts
	return fp
}

func campaignFingerprint(t *testing.T, seed int64) fingerprint {
	ctx := context.Background()
	st, err := newCampaignState(ctx, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprint{ops: st.randSeeds}
	var verdicts [][3]int
	rows, _ := st.pass(ctx, st.randSeeds, nil, true)
	for _, r := range rows {
		if r.err != nil {
			t.Fatal(r.err)
		}
		fp.queries = append(fp.queries, r.inputs)
		verdicts = append(verdicts, [3]int{r.accepted, r.dups, r.interesting})
	}
	fp.verdicts = verdicts
	return fp
}

// TestSeedDeterminesWork checks, per workload, that two runs with the same
// seed do identical work (operation lists, query counts, grammar digests,
// verdicts) and that another seed changes it. The serve grammars are
// learned from the oracles' bundled seeds, so only their check batches,
// verdicts and request sequences depend on the seed.
func TestSeedDeterminesWork(t *testing.T) {
	for _, w := range []struct {
		name          string
		fn            func(*testing.T, int64) fingerprint
		seededGrammar bool
	}{
		{"learn", learnFingerprint, true},
		{"learn-exec", learnExecFingerprint, true},
		{"serve", serveFingerprint, false},
		{"campaign", campaignFingerprint, false},
	} {
		t.Run(w.name, func(t *testing.T) {
			a, b, c := w.fn(t, 11), w.fn(t, 11), w.fn(t, 12)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("same seed, different work:\n%+v\n%+v", a, b)
			}
			if reflect.DeepEqual(a.ops, c.ops) {
				t.Errorf("seeds 11 and 12 drew the same operations")
			}
			if a.queries != nil && reflect.DeepEqual(a.queries, c.queries) {
				t.Errorf("seeds 11 and 12 gave the same query counts %v", a.queries)
			}
			if a.verdicts != nil && reflect.DeepEqual(a.verdicts, c.verdicts) {
				t.Errorf("seeds 11 and 12 gave the same verdicts")
			}
			if w.seededGrammar && reflect.DeepEqual(a.digests, c.digests) {
				t.Errorf("seeds 11 and 12 learned the same grammars %v", a.digests)
			}
		})
	}
}
