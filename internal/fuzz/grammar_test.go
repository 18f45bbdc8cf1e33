package fuzz

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"glade/internal/cfg"
	"glade/internal/programs"
)

var updateNext = flag.Bool("update-next", false, "rewrite testdata/next.txt from the current generator")

// nextDraws is how many Next outputs one fixture line hashes.
const nextDraws = 10000

// goldenFuzzer builds the grammar fuzzer over the pinned learned grammar
// of program name (internal/core/testdata/golden_<name>_w1.grammar) and
// the program's first four seeds, the seeds the golden was learned from.
func goldenFuzzer(tb testing.TB, name string) *Grammar {
	tb.Helper()
	g := goldenGrammar(tb, name)
	seeds := programs.ByName(name).Seeds()
	if len(seeds) > 4 {
		seeds = seeds[:4]
	}
	return NewGrammar(g, seeds)
}

func goldenGrammar(tb testing.TB, name string) *cfg.Grammar {
	tb.Helper()
	text, err := os.ReadFile(filepath.Join("..", "core", "testdata", "golden_"+name+"_w1.grammar"))
	if err != nil {
		tb.Fatalf("golden grammar: %v", err)
	}
	g, err := cfg.Unmarshal(string(text))
	if err != nil {
		tb.Fatalf("golden grammar %s: %v", name, err)
	}
	return g
}

// nextStream returns n consecutive Next outputs for rng seed.
func nextStream(f *Grammar, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		out[i] = f.Next(rng)
	}
	return out
}

// TestGrammarNextStream pins the grammar fuzzer's output: for the golden
// sed and xml grammars, and for a fuzzer none of whose seeds parse (the
// unparsed fallback), the sha256 of 10,000 consecutive Next outputs at
// rng seeds 1–5 must match testdata/next.txt.
//
// The file was produced by copying this test into an archive copy
// (git archive) of the commit before the generator ran on flat preorder
// derivations, and running
//
//	go test ./internal/fuzz -run TestGrammarNextStream -update-next
//
// there. Only a change that deliberately alters the generator's
// distribution may regenerate it.
func TestGrammarNextStream(t *testing.T) {
	unparsed := NewGrammar(goldenGrammar(t, "xml"), []string{"\x00one", "\x00two", "\x00three"})
	if unparsed.ParsedSeeds() != 0 {
		t.Fatal("a fallback seed parses under the xml grammar")
	}
	cases := []struct {
		name string
		f    *Grammar
	}{
		{"sed", goldenFuzzer(t, "sed")},
		{"xml", goldenFuzzer(t, "xml")},
		{"unparsed", unparsed},
	}
	var got []string
	for _, c := range cases {
		for seed := int64(1); seed <= 5; seed++ {
			h := sha256.New()
			for _, s := range nextStream(c.f, seed, nextDraws) {
				fmt.Fprintf(h, "%d:%s", len(s), s)
			}
			got = append(got, fmt.Sprintf("%s rng=%d draws=%d sha256=%x", c.name, seed, nextDraws, h.Sum(nil)))
		}
	}
	path := filepath.Join("testdata", "next.txt")
	if *updateNext {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("next.txt has %d cases, the test draws %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("next.txt drift:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestGrammarNextConcurrent shares one fuzzer between 8 goroutines, each
// drawing with its own rng: every goroutine's stream must equal the
// sequential stream for its seed, as glade-serve's pooled generation
// relies on. Run it under -race.
func TestGrammarNextConcurrent(t *testing.T) {
	const goroutines, draws = 8, 2000
	f := goldenFuzzer(t, "sed")
	want := make([][]string, goroutines)
	for i := range want {
		want[i] = nextStream(f, int64(i+1), draws)
	}
	got := make([][]string, goroutines)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = nextStream(f, int64(i+1), draws)
		}()
	}
	wg.Wait()
	for i := range got {
		for k := range got[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("goroutine %d draw %d: got %q, sequential stream has %q", i, k, got[i][k], want[i][k])
			}
		}
	}
}

// BenchmarkGrammarNext times one generated input on the golden sed and
// xml grammars.
func BenchmarkGrammarNext(b *testing.B) {
	for _, name := range []string{"sed", "xml"} {
		b.Run(name, func(b *testing.B) {
			f := goldenFuzzer(b, name)
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for b.Loop() {
				f.Next(rng)
			}
		})
	}
}
