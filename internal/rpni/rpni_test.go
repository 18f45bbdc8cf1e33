package rpni

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"glade/internal/automata"
	"glade/internal/bytesets"
	"glade/internal/rex"
	"glade/internal/targets"
)

// characteristicLearn runs RPNI with a generous characteristic sample drawn
// from the truth DFA plus enumerated negatives.
func characteristicLearn(t *testing.T, truth *automata.DFA, alphabet []byte, maxLen int) *automata.DFA {
	t.Helper()
	var pos, neg []string
	var enum func(prefix string)
	enum = func(prefix string) {
		if truth.Accepts(prefix) {
			pos = append(pos, prefix)
		} else {
			neg = append(neg, prefix)
		}
		if len(prefix) == maxLen {
			return
		}
		for _, a := range alphabet {
			enum(prefix + string(a))
		}
	}
	enum("")
	got, stats := Learn(pos, neg, alphabet, 0)
	if stats.PTAStates == 0 {
		t.Fatal("empty PTA")
	}
	return got
}

func TestLearnsFromCharacteristicSamples(t *testing.T) {
	cases := []struct {
		name     string
		e        rex.Expr
		alphabet string
		maxLen   int
	}{
		{"aStar", rex.Rep(rex.Literal("a")), "ab", 6},
		{"abStar", rex.Rep(rex.Literal("ab")), "ab", 8},
		{"literal", rex.Literal("ab"), "ab", 5},
		{"endsB", rex.Concat(rex.Rep(rex.OneOf(bytesets.OfString("ab"))), rex.Literal("b")), "ab", 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			truth := automata.FromRex(c.e, []byte(c.alphabet))
			got := characteristicLearn(t, truth, []byte(c.alphabet), c.maxLen)
			if eq, w := automata.Equivalent(got, truth); !eq {
				t.Fatalf("learned wrong language; witness %q", w)
			}
		})
	}
}

// TestIncompleteSamplesUndergeneralize documents the failure mode the paper
// leans on: without the characteristic sample, RPNI's language can miss
// valid strings entirely.
func TestIncompleteSamplesUndergeneralize(t *testing.T) {
	// Target a*: give only "aa" and no negatives that force the loop.
	got, _ := Learn([]string{"aa"}, []string{"b"}, []byte("ab"), 0)
	if !got.Accepts("aa") {
		t.Fatal("rejects its own positive example")
	}
	// A terminal never seen in the positives is never accepted (§8.2).
	if got.Accepts("bbbb") {
		t.Fatal("accepted string built from unseen terminal")
	}
}

// TestNeverAcceptsNegatives is the defining invariant of RPNI.
func TestNeverAcceptsNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []byte("ab")
	truth := automata.FromRex(rex.Rep(rex.Literal("ab")), alphabet)
	for trial := 0; trial < 30; trial++ {
		var pos, neg []string
		for i := 0; i < 15; i++ {
			s := randString(rng, alphabet, 8)
			if truth.Accepts(s) {
				pos = append(pos, s)
			} else {
				neg = append(neg, s)
			}
		}
		if len(pos) == 0 {
			pos = []string{""}
		}
		got, _ := Learn(pos, neg, alphabet, 0)
		for _, n := range neg {
			if got.Accepts(n) {
				t.Fatalf("accepts negative %q (pos=%v neg=%v)", n, pos, neg)
			}
		}
		for _, p := range pos {
			if !got.Accepts(p) {
				t.Fatalf("rejects positive %q", p)
			}
		}
	}
}

// TestLearnDeterministic learns url's Fig. 4 inputs (10 seeds from rand
// seed 1, 50 random strings the oracle rejects) over and over: the merge
// sequence, and so the DFA, must not depend on Go's map iteration order.
func TestLearnDeterministic(t *testing.T) {
	tgt := targets.URL()
	alphabet := tgt.Grammar.Terminals().Bytes()
	positives := tgt.SampleSeeds(rand.New(rand.NewSource(1)), 10)
	var negatives []string
	rng := rand.New(rand.NewSource(14))
	for len(negatives) < 50 {
		if s := randString(rng, alphabet, 24); !tgt.Oracle(s) {
			negatives = append(negatives, s)
		}
	}
	want, _ := Learn(positives, negatives, alphabet, 0)
	for run := 1; run < 30; run++ {
		if got, _ := Learn(positives, negatives, alphabet, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: DFA differs", run)
		}
	}
}

func TestPositivesOutsideAlphabetIgnored(t *testing.T) {
	got, _ := Learn([]string{"ab", "zz"}, nil, []byte("ab"), 0)
	if !got.Accepts("ab") {
		t.Fatal("rejects in-alphabet positive")
	}
	if got.Accepts("zz") {
		t.Fatal("accepted out-of-alphabet string")
	}
}

func TestTimeoutReturnsAutomaton(t *testing.T) {
	// Large PTA with an immediate deadline.
	var pos []string
	for i := 0; i < 200; i++ {
		pos = append(pos, strings.Repeat("ab", i%20))
	}
	got, stats := Learn(pos, []string{"a"}, []byte("ab"), time.Nanosecond)
	if got == nil {
		t.Fatal("nil DFA on timeout")
	}
	if !stats.TimedOut {
		t.Fatal("TimedOut not set")
	}
}

func randString(rng *rand.Rand, alphabet []byte, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}
