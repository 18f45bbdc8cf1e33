package rex

import (
	"math/rand"
	"testing"

	"glade/internal/bytesets"
)

// checkSubstitutions compares Matcher.Substitutions with Match on every
// (position, byte) pair. The expressions under test only mention a, b and
// c, so every other byte behaves like z and these four bytes cover all 256.
func checkSubstitutions(t *testing.T, e Expr, pre, s, post string) {
	t.Helper()
	m := Compile(e)
	rows := m.Substitutions(pre, s, post)
	if len(rows) != len(s) {
		t.Fatalf("%s: %d rows for %q, want %d", String(e), len(rows), s, len(s))
	}
	for i := range s {
		for _, σ := range []byte("abcz") {
			w := pre + s[:i] + string(σ) + s[i+1:] + post
			if got, want := rows[i].Has(σ), m.Match(w); got != want {
				t.Fatalf("%s: row %d of (%q, %q, %q) has %q = %v, but Match(%q) = %v",
					String(e), i, pre, s, post, σ, got, w, want)
			}
		}
		if rows[i].Has(s[i]) != m.Match(pre+s+post) {
			t.Fatalf("%s: row %d of (%q, %q, %q) disagrees with Match on the unchanged string",
				String(e), i, pre, s, post)
		}
	}
}

// randString draws a string of up to max bytes over {a,b,c}.
func randString(rng *rand.Rand, max int) string {
	b := make([]byte, rng.Intn(max+1))
	for i := range b {
		b[i] = byte('a' + rng.Intn(3))
	}
	return string(b)
}

// Property: the substitution table agrees with Match on random expressions
// and contexts. Half the cases split a string sampled from the expression,
// so that most rows are non-empty.
func TestSubstitutionsAgreeWithMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		e := randomExpr(rng, 4)
		pre, s, post := randString(rng, 3), randString(rng, 6), randString(rng, 3)
		if !Empty(e) && rng.Intn(2) == 0 {
			w := Sample(e, rng, 0.5)
			i := rng.Intn(len(w) + 1)
			j := i + rng.Intn(len(w)-i+1)
			pre, s, post = w[:i], w[i:j], w[j:]
		}
		checkSubstitutions(t, e, pre, s, post)
	}
}

// decodeExpr reads an expression over {a,b,c} from fuzz bytes, so the
// fuzzer mutates structure directly. Each node is one opcode byte (mod 7):
// ε, literal (a length byte, then one byte per character), class (a byte
// whose low three bits pick a, b and c), concatenation, alternation, star,
// and the empty language. Running out of bytes, or reaching depth 0 on an
// inner node, yields ε.
func decodeExpr(data []byte, depth int) (Expr, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	if len(data) == 0 {
		return Epsilon(), nil
	}
	op := next() % 7
	if depth == 0 && op >= 3 && op <= 5 {
		return Epsilon(), data
	}
	switch op {
	case 1:
		b := make([]byte, next()%4+1)
		for i := range b {
			b[i] = 'a' + next()%3
		}
		return Literal(string(b)), data
	case 2:
		var set bytesets.Set
		bits := next()
		for k := byte(0); k < 3; k++ {
			if bits&(1<<k) != 0 {
				set.Add('a' + k)
			}
		}
		return OneOf(set), data
	case 3, 4:
		var l, r Expr
		l, data = decodeExpr(data, depth-1)
		r, data = decodeExpr(data, depth-1)
		if op == 3 {
			return Concat(l, r), data
		}
		return Union(l, r), data
	case 5:
		var k Expr
		k, data = decodeExpr(data, depth-1)
		return Rep(k), data
	case 6:
		return Union(), data
	}
	return Epsilon(), data
}

// FuzzSubstitutions checks the substitution table of a fuzzed expression in
// a fuzzed context (pre, s, post) against Match.
func FuzzSubstitutions(f *testing.F) {
	f.Add([]byte{5, 3, 1, 1, 0, 1, 2, 4}, "a", "bab", "c")
	f.Fuzz(func(t *testing.T, expr []byte, pre, s, post string) {
		if len(expr) > 256 || len(pre)+len(s)+len(post) > 64 {
			return // bound the Match cross-check; size adds no coverage
		}
		e, _ := decodeExpr(expr, 6)
		checkSubstitutions(t, e, pre, s, post)
	})
}
