package glade

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"glade/internal/bytesets"
	"glade/internal/fuzz"
	"glade/internal/programs"
	"glade/internal/targets"
)

// TestEndToEndXMLTarget runs the whole pipeline through the public facade:
// learn the §8.2 XML target from documentation seeds, check key properties
// of the result, and fuzz with the synthesized grammar.
func TestEndToEndXMLTarget(t *testing.T) {
	tgt := targets.XML()
	opts := DefaultOptions()
	opts.Timeout = 60 * time.Second
	res, err := LearnContext(context.Background(), tgt.DocSeeds, tgt.Oracle, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Recursion learned from flat seeds: deeper nesting than any seed.
	if !Compile(res.Grammar).Accepts("<a><a><a>deep</a></a></a>") {
		t.Error("nested elements rejected; phase 2 failed end-to-end")
	}
	// Fuzz: the grammar fuzzer must produce valid inputs far more often
	// than the naive baseline (the paper's core fuzzing claim).
	fz := NewGrammarFuzzer(res.Grammar, tgt.DocSeeds)
	naive := NewNaiveFuzzer(tgt.DocSeeds, nil)
	rng := rand.New(rand.NewSource(5))
	gValid, nValid := 0, 0
	for i := 0; i < 300; i++ {
		if tgt.Oracle(fz.Next(rng)) {
			gValid++
		}
		if tgt.Oracle(naive.Next(rng)) {
			nValid++
		}
	}
	if gValid < 60 || gValid < 3*nValid {
		t.Errorf("grammar fuzzer validity %d/300 vs naive %d/300", gValid, nValid)
	}
}

// TestEndToEndProgramPipeline mirrors §8.3 on the simulated sed program:
// synthesize from bundled seeds, fuzz, and compare against the naive
// baseline.
func TestEndToEndProgramPipeline(t *testing.T) {
	p := programs.Sed()
	o := OracleFunc(func(s string) bool { return p.Run(s).OK })
	opts := DefaultOptions()
	opts.Timeout = 60 * time.Second
	res, err := LearnContext(context.Background(), p.Seeds(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := 4000
	naive := fuzz.RunCoverage(p, NewNaiveFuzzer(p.Seeds(), nil), n, rand.New(rand.NewSource(1)), 0)
	gl := fuzz.RunCoverage(p, NewGrammarFuzzer(res.Grammar, p.Seeds()), n, rand.New(rand.NewSource(1)), 0)
	if gl.Valid <= naive.Valid {
		t.Errorf("grammar fuzzer produced fewer valid inputs (%d) than naive (%d)", gl.Valid, naive.Valid)
	}
	if gl.IncrCover == 0 {
		t.Error("grammar fuzzer found no incremental coverage")
	}
}

// TestExecOracle exercises the external-command oracle end to end with a
// real process, exactly how the CLI drives an actual binary.
func TestExecOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	// Valid inputs: lines containing "ab" (grep -q exits 0 on match).
	o := ExecOracle("grep", "-q", "ab")
	yes, err1 := o.Check(context.Background(), "xxabyy")
	no, err2 := o.Check(context.Background(), "nope")
	if err1 != nil || err2 != nil || yes != VerdictAccept || no == VerdictAccept {
		t.Skip("grep unavailable or behaves unexpectedly; skipping")
	}
	opts := DefaultOptions()
	opts.GenAlphabet = bytesets.OfString("abxy")
	opts.Timeout = 30 * time.Second
	res, err := LearnContext(context.Background(), []string{"xaby"}, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		s := Sample(res.Grammar, rng)
		if !strings.Contains(s, "ab") {
			t.Fatalf("sampled %q without the mandatory substring", s)
		}
	}
}
