package targets

import (
	"math/rand"
	"testing"

	"glade/internal/cfg"
)

func TestAllRegistered(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("All() returned %d targets", len(all))
	}
	names := map[string]bool{}
	for _, tgt := range all {
		if tgt.Name == "" || tgt.Grammar == nil || tgt.Oracle == nil {
			t.Fatalf("incomplete target %+v", tgt)
		}
		if err := tgt.Grammar.Validate(); err != nil {
			t.Fatalf("%s grammar invalid: %v", tgt.Name, err)
		}
		names[tgt.Name] = true
		if ByName(tgt.Name) == nil {
			t.Fatalf("ByName(%q) = nil", tgt.Name)
		}
	}
	for _, want := range []string{"url", "grep", "lisp", "xml"} {
		if !names[want] {
			t.Fatalf("missing target %q", want)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName of unknown target non-nil")
	}
}

func TestDocSeedsValid(t *testing.T) {
	for _, tgt := range All() {
		if len(tgt.DocSeeds) < 3 {
			t.Errorf("%s: only %d doc seeds", tgt.Name, len(tgt.DocSeeds))
		}
		c := cfg.Compile(tgt.Grammar)
		for _, s := range tgt.DocSeeds {
			if !tgt.Oracle(s) {
				t.Errorf("%s: oracle rejects doc seed %q", tgt.Name, s)
			}
			if !c.Accepts(s) {
				t.Errorf("%s: grammar rejects doc seed %q", tgt.Name, s)
			}
		}
	}
}

// TestGrammarOracleAgreementOnSamples: every grammar sample must be
// accepted by the hand parser — the two definitions of L* agree on members.
func TestGrammarOracleAgreementOnSamples(t *testing.T) {
	for _, tgt := range All() {
		sm := cfg.Compile(tgt.Grammar)
		sm.MaxDepth = 26
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 400; i++ {
			s := sm.Sample(rng)
			if !tgt.Oracle(s) {
				t.Fatalf("%s: oracle rejects grammar sample %q", tgt.Name, s)
			}
		}
	}
}

// TestGrammarOracleAgreementOnMutants: random single-byte mutations of
// samples must classify identically under the compiled grammar and the
// hand parser — the two definitions agree on non-members too.
func TestGrammarOracleAgreementOnMutants(t *testing.T) {
	for _, tgt := range All() {
		c := cfg.Compile(tgt.Grammar)
		c.MaxDepth = 22
		rng := rand.New(rand.NewSource(29))
		alphabet := []byte("abcz019 <>/()[]{}\"'\\.*|=&?#:;\n-")
		for i := 0; i < 120; i++ {
			s := c.Sample(rng)
			for k := 0; k < 6; k++ {
				m := mutate(rng, s, alphabet)
				if len(m) > 120 {
					continue
				}
				want := c.Accepts(m)
				got := tgt.Oracle(m)
				if got != want {
					t.Fatalf("%s: oracle=%v grammar=%v on %q (mutant of %q)",
						tgt.Name, got, want, m, s)
				}
			}
		}
	}
}

func mutate(rng *rand.Rand, s string, alphabet []byte) string {
	b := []byte(s)
	switch rng.Intn(3) {
	case 0: // insert
		pos := rng.Intn(len(b) + 1)
		c := alphabet[rng.Intn(len(alphabet))]
		b = append(b[:pos], append([]byte{c}, b[pos:]...)...)
	case 1: // delete
		if len(b) == 0 {
			return s
		}
		pos := rng.Intn(len(b))
		b = append(b[:pos], b[pos+1:]...)
	default: // replace
		if len(b) == 0 {
			return s
		}
		pos := rng.Intn(len(b))
		b[pos] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

func TestSampleSeeds(t *testing.T) {
	tgt := XML()
	rng := rand.New(rand.NewSource(3))
	seeds := tgt.SampleSeeds(rng, 20)
	if len(seeds) != 20 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	seen := map[string]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %q", s)
		}
		seen[s] = true
		if !tgt.Oracle(s) {
			t.Fatalf("invalid seed %q", s)
		}
	}
}

func TestURLCases(t *testing.T) {
	o := URL().Oracle
	valid := []string{
		"http://a.bc",
		"https://www.example.org/a/b?x=1&y=2",
		"ftp://files.example-site.net/pub/file.txt",
		"http://x0.y1.zz/p/q.r?a=1&b=2",
		"http://a.b.co",         // any dot may split host from TLD
		"http://a:8080.com",     // ':' is a host char in the regex
		"https://www.ab.cdefgh", // 6-letter TLD
	}
	for _, s := range valid {
		if !o(s) {
			t.Errorf("rejects valid %q", s)
		}
	}
	invalid := []string{
		"",
		"http://",
		"http://host",   // no dot
		"http://a.b",    // 1-letter TLD (regex wants 2-6)
		"gopher://a.bc", // unknown scheme
		"http:/a.bc",
		"HTTP://a.bc",     // uppercase not in our lowercase alphabet
		"http://.bc",      // empty host part
		"http://ab.cd|ef", // '|' not a path char
	}
	for _, s := range invalid {
		if o(s) {
			t.Errorf("accepts invalid %q", s)
		}
	}
}

func TestGrepCases(t *testing.T) {
	o := Grep().Oracle
	valid := []string{
		"",
		"abc",
		"a*",
		"a**",
		".*",
		"[abc]x",
		"[^a-z]",
		`\(a\)`,
		`\(a\|b\)*c`,
		`a\|`,
		`\|a`,
		`ab c`,
	}
	for _, s := range valid {
		if !o(s) {
			t.Errorf("rejects valid %q", s)
		}
	}
	invalid := []string{
		"*a",
		"a\\",
		`\x`,
		"[",
		"[]",
		"a]",
		`\(a`,
		`a\)`,
		`\(\|*\)`,
		"a^b", // '^' is not ordinary in our grammar
	}
	for _, s := range invalid {
		if o(s) {
			t.Errorf("accepts invalid %q", s)
		}
	}
}

func TestLispCases(t *testing.T) {
	o := Lisp().Oracle
	valid := []string{
		"(a)",
		"(+ 1 2)",
		"(f (g x) y)",
		"(f \"str with (parens)\")",
		"(f 'x '(a b))",
		"(f ; comment\n x)",
		"( f )",
		"(f(g))",
	}
	for _, s := range valid {
		if !o(s) {
			t.Errorf("rejects valid %q", s)
		}
	}
	invalid := []string{
		"",
		"()",     // first item required
		"( )",    // likewise
		"(f",     // unterminated
		"f)",     // no open
		"(f))",   // extra close
		"(f \")", // unterminated string
		"(f ; comment no newline)",
		"x",
		"(F)", // uppercase not in alphabet
	}
	for _, s := range invalid {
		if o(s) {
			t.Errorf("accepts invalid %q", s)
		}
	}
}

func TestXMLCases(t *testing.T) {
	o := XML().Oracle
	valid := []string{
		"<a></a>",
		"<a/>",
		"<a />",
		"<a>text</a>",
		`<a x="1"></a>`,
		`<a x="1" y="b c"><a/></a>`,
		"<a><!-- note --></a>",
		"<a><![CDATA[data]]></a>",
		"<a><?p target?></a>",
		"<a><a><a>deep</a></a></a>",
		"<a>line\nbreak</a>",
	}
	for _, s := range valid {
		if !o(s) {
			t.Errorf("rejects valid %q", s)
		}
	}
	invalid := []string{
		"",
		"<a>",
		"</a>",
		"<a></b>",
		"<b></b>",
		`<a x=1></a>`,
		`<a x="1></a>`,
		`<ax="1"></a>`, // missing space before attribute
		"<a><!-- -- --></a>",
		"<a><?p?></a>", // PI needs space + body
		"<a>text",
		"<a><a></a>",
	}
	for _, s := range invalid {
		if o(s) {
			t.Errorf("accepts invalid %q", s)
		}
	}
}
