package glade

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"glade/internal/bytesets"
)

// dyckCheck is the verdict-function version of the dyck oracle.
func dyckCheck(ctx context.Context, s string) (Verdict, error) {
	if err := ctx.Err(); err != nil {
		return VerdictReject, err
	}
	if dyck(s) {
		return VerdictAccept, nil
	}
	return VerdictReject, nil
}

// TestOracleFuncMatchesCheckOracleFunc pins the predicate path against
// the verdict path: learning Dyck through OracleFunc and through
// CheckOracleFunc synthesizes byte-identical grammars.
func TestOracleFuncMatchesCheckOracleFunc(t *testing.T) {
	opts := DefaultOptions()
	opts.GenAlphabet = bytesets.OfString("()")
	viaVerdicts, err := LearnContext(context.Background(), []string{"(())"}, CheckOracleFunc(dyckCheck), opts)
	if err != nil {
		t.Fatal(err)
	}
	viaPredicate, err := LearnContext(context.Background(), []string{"(())"}, OracleFunc(dyck), opts)
	if err != nil {
		t.Fatal(err)
	}
	if viaPredicate.Grammar.String() != viaVerdicts.Grammar.String() {
		t.Fatal("OracleFunc and CheckOracleFunc learned different grammars")
	}
}

// TestLearnContextCancellation checks the facade surfaces ctx.Err() on
// cancellation.
func TestLearnContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	queries := 0
	o := CheckOracleFunc(func(qctx context.Context, s string) (Verdict, error) {
		queries++
		if queries == 10 {
			cancel()
		}
		return dyckCheck(qctx, s)
	})
	opts := DefaultOptions()
	opts.GenAlphabet = bytesets.OfString("()")
	_, err := LearnContext(ctx, []string{"(())"}, o, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestLearnContextSurfacesOracleError checks an oracle failure aborts with
// the error rather than reading as rejection.
func TestLearnContextSurfacesOracleError(t *testing.T) {
	boom := errors.New("oracle hardware on fire")
	queries := 0
	o := CheckOracleFunc(func(ctx context.Context, s string) (Verdict, error) {
		queries++
		if queries > 5 {
			return VerdictReject, boom
		}
		return dyckCheck(ctx, s)
	})
	_, err := LearnContext(context.Background(), []string{"(())"}, o, DefaultOptions())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the oracle error", err)
	}
}

// TestVerdictConstants pins the facade verdict aliases to the oracle
// package's semantics.
func TestVerdictConstants(t *testing.T) {
	if !VerdictAccept.Accepted() {
		t.Fatal("VerdictAccept not accepted")
	}
	for _, v := range []Verdict{VerdictReject, VerdictCrash, VerdictTimeout} {
		if v.Accepted() {
			t.Fatalf("%v reads as accepted", v)
		}
	}
}

// TestCheckAllFacade exercises the facade's batch helper with both plain
// and pooled oracles.
func TestCheckAllFacade(t *testing.T) {
	inputs := []string{"(())", ")(", "()", "x"}
	want := []Verdict{VerdictAccept, VerdictReject, VerdictAccept, VerdictReject}
	for _, o := range []CheckOracle{
		CheckOracleFunc(dyckCheck),
		ParallelCheckOracle(CheckOracleFunc(dyckCheck), 4),
		OracleFunc(dyck),
	} {
		got, err := CheckAll(context.Background(), o, inputs, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("CheckAll[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

// TestSampleCachesCompiledGrammar is the satellite contract: repeated
// Sample calls on the same grammar compile it once, and the drawn strings
// match the uncached sampler stream exactly.
func TestSampleCachesCompiledGrammar(t *testing.T) {
	res := learnDyck(t)
	g := res.Grammar

	// Same rng seed through both paths: identical streams.
	cached := rand.New(rand.NewSource(7))
	direct := rand.New(rand.NewSource(7))
	sm := Compile(g)
	for i := 0; i < 50; i++ {
		a := Sample(g, cached)
		b := sm.Sample(direct)
		if a != b {
			t.Fatalf("draw %d: cached Sample %q != fresh Compile %q", i, a, b)
		}
	}
	// The cache holds this grammar's compiled form and reuses it.
	sampleCache.Lock()
	first := sampleCache.c
	if sampleCache.g != g || first == nil {
		sampleCache.Unlock()
		t.Fatal("sample cache did not retain the grammar")
	}
	sampleCache.Unlock()
	Sample(g, cached)
	sampleCache.Lock()
	if sampleCache.c != first {
		sampleCache.Unlock()
		t.Fatal("repeated Sample recompiled the grammar")
	}
	sampleCache.Unlock()

	// Switching grammars swaps the slot.
	other := learnDyck(t).Grammar
	Sample(other, cached)
	sampleCache.Lock()
	if sampleCache.g != other {
		sampleCache.Unlock()
		t.Fatal("sample cache did not follow the new grammar")
	}
	sampleCache.Unlock()
}
