package cfg

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"glade/internal/bytesets"
)

// Marshal renders the grammar in a line-oriented text format that Unmarshal
// parses back. The format is stable and human-editable:
//
//	start <name>
//	<name> -> <sym> <sym> ...      one line per production
//	<name> ->                      an epsilon production
//
// Symbols are nonterminal names, Go-quoted byte-string literals ("ab\n"),
// or character classes in set notation ({a-z0-9_}). Nonterminal names must
// match [A-Za-z_][A-Za-z0-9_']*.
//
// Nonterminal blocks are emitted in first-mention order (breadth-first
// from the start symbol, unreachable nonterminals after). Unmarshal interns
// nonterminals by first mention, so this order is its fixed point: Marshal
// after Unmarshal reproduces the text byte for byte — the property the
// glade-serve grammar store relies on to re-serve stored bytes verbatim.
func Marshal(g *Grammar) string {
	var b strings.Builder
	fmt.Fprintf(&b, "start %s\n", g.Names[g.Start])
	for _, nt := range mentionOrder(g) {
		for _, p := range g.Prods[nt] {
			fmt.Fprintf(&b, "%s ->", g.Names[nt])
			i := 0
			for i < len(p) {
				s := p[i]
				b.WriteByte(' ')
				if s.IsNT() {
					b.WriteString(g.Names[s.NT])
					i++
					continue
				}
				if s.Set.Len() == 1 {
					// Merge runs of singleton terminals into one literal.
					var lit []byte
					for i < len(p) && !p[i].IsNT() && p[i].Set.Len() == 1 {
						lit = append(lit, p[i].Set.Min())
						i++
					}
					b.WriteString(strconv.Quote(string(lit)))
					continue
				}
				b.WriteString(marshalClass(s.Set))
				i++
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// mentionOrder returns every nonterminal in the order its name first
// appears when blocks are emitted in this very order — breadth-first from
// the start symbol, then each unreachable nonterminal (in id order) with
// its own breadth-first expansion, so a nonterminal first mentioned inside
// an unreachable block still precedes later-id unreachables.
func mentionOrder(g *Grammar) []int {
	order := make([]int, 0, len(g.Prods))
	seen := make([]bool, len(g.Prods))
	add := func(nt int) {
		if !seen[nt] {
			seen[nt] = true
			order = append(order, nt)
		}
	}
	cursor := 0
	expand := func() {
		for ; cursor < len(order); cursor++ {
			for _, p := range g.Prods[order[cursor]] {
				for _, s := range p {
					if s.IsNT() {
						add(s.NT)
					}
				}
			}
		}
	}
	add(g.Start)
	expand()
	for nt := range g.Prods {
		add(nt)
		expand()
	}
	return order
}

func marshalClass(set bytesets.Set) string {
	var b strings.Builder
	b.WriteByte('{')
	members := set.Bytes()
	for i := 0; i < len(members); {
		j := i
		for j+1 < len(members) && members[j+1] == members[j]+1 {
			j++
		}
		if j-i >= 2 {
			b.WriteString(escapeClassByte(members[i]))
			b.WriteByte('-')
			b.WriteString(escapeClassByte(members[j]))
		} else {
			for k := i; k <= j; k++ {
				b.WriteString(escapeClassByte(members[k]))
			}
		}
		i = j + 1
	}
	b.WriteByte('}')
	return b.String()
}

func escapeClassByte(c byte) string {
	switch c {
	case '\\', '-', '{', '}':
		return `\` + string(c)
	case '\n':
		return `\n`
	case '\t':
		return `\t`
	case '\r':
		return `\r`
	}
	if c < 32 || c > 126 {
		return fmt.Sprintf(`\x%02x`, c)
	}
	return string(c)
}

// Unmarshal parses the Marshal format. Nonterminals are created on first
// mention; the start symbol defaults to the first nonterminal when no
// "start" line is present.
func Unmarshal(text string) (*Grammar, error) {
	g := New()
	names := map[string]int{}
	intern := func(name string) int {
		if id, ok := names[name]; ok {
			return id
		}
		id := g.AddNT(name)
		names[name] = id
		return id
	}
	startName := ""
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// A "start" directive names the start symbol. A nonterminal may
		// itself be named "start", so a line that is a production (it
		// contains "->") is never treated as the directive.
		if rest, ok := strings.CutPrefix(line, "start "); ok && !strings.Contains(rest, "->") {
			startName = strings.TrimSpace(rest)
			continue
		}
		name, rhs, ok := strings.Cut(line, "->")
		if !ok {
			return nil, fmt.Errorf("cfg: line %d: missing '->'", lineNo)
		}
		nt := intern(strings.TrimSpace(name))
		syms, err := parseSyms(strings.TrimSpace(rhs), intern)
		if err != nil {
			return nil, fmt.Errorf("cfg: line %d: %v", lineNo, err)
		}
		g.Add(nt, syms...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g.NumNT() == 0 {
		return nil, fmt.Errorf("cfg: no productions")
	}
	// Names are interned on mention from both sides of '->'; reject any
	// that violate the documented shape (empty, or digit-leading) now —
	// such a grammar would marshal to text Unmarshal cannot re-parse.
	for name := range names {
		if !validName(name) {
			return nil, fmt.Errorf("cfg: invalid nonterminal name %q", name)
		}
	}
	if startName != "" {
		id, ok := names[startName]
		if !ok {
			return nil, fmt.Errorf("cfg: start symbol %q has no productions", startName)
		}
		g.Start = id
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func parseSyms(rhs string, intern func(string) int) ([]Sym, error) {
	var out []Sym
	i := 0
	for i < len(rhs) {
		switch c := rhs[i]; {
		case c == ' ' || c == '\t':
			i++
		case c == '"':
			lit, rest, err := scanQuoted(rhs[i:])
			if err != nil {
				return nil, err
			}
			out = append(out, Str(lit)...)
			i = len(rhs) - len(rest)
		case c == '{':
			set, n, err := scanClass(rhs[i:])
			if err != nil {
				return nil, err
			}
			out = append(out, T(set))
			i += n
		case isNameByte(c):
			j := i
			for j < len(rhs) && isNameByte(rhs[j]) {
				j++
			}
			out = append(out, N(intern(rhs[i:j])))
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q", c)
		}
	}
	return out, nil
}

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '\''
}

// validName reports whether name matches the documented nonterminal shape
// [A-Za-z_][A-Za-z0-9_']*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	c := name[0]
	if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_') {
		return false
	}
	for i := 1; i < len(name); i++ {
		if !isNameByte(name[i]) {
			return false
		}
	}
	return true
}

// scanQuoted reads a Go-quoted string from the front of s and returns the
// unquoted value plus the remainder.
func scanQuoted(s string) (string, string, error) {
	// Find the closing quote, honoring backslash escapes.
	for j := 1; j < len(s); j++ {
		if s[j] == '\\' {
			j++
			continue
		}
		if s[j] == '"' {
			lit, err := strconv.Unquote(s[:j+1])
			if err != nil {
				return "", "", fmt.Errorf("bad literal %s: %v", s[:j+1], err)
			}
			return lit, s[j+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated literal")
}

// scanClass reads a {…} character class and returns the set and the number
// of bytes consumed.
func scanClass(s string) (bytesets.Set, int, error) {
	var set bytesets.Set
	i := 1
	var prev int = -1
	for i < len(s) {
		c := s[i]
		switch {
		case c == '}':
			return set, i + 1, nil
		case c == '-' && prev >= 0 && i+1 < len(s) && s[i+1] != '}':
			// Range prev-next.
			i++
			hi, n, err := classByte(s[i:])
			if err != nil {
				return set, 0, err
			}
			i += n
			if hi < byte(prev) {
				return set, 0, fmt.Errorf("inverted range in class")
			}
			for b := prev; b <= int(hi); b++ {
				set.Add(byte(b))
			}
			prev = -1
		default:
			b, n, err := classByte(s[i:])
			if err != nil {
				return set, 0, err
			}
			i += n
			set.Add(b)
			prev = int(b)
		}
	}
	return set, 0, fmt.Errorf("unterminated class")
}

func classByte(s string) (byte, int, error) {
	if len(s) == 0 {
		return 0, 0, fmt.Errorf("empty class element")
	}
	if s[0] != '\\' {
		return s[0], 1, nil
	}
	if len(s) < 2 {
		return 0, 0, fmt.Errorf("dangling escape in class")
	}
	switch s[1] {
	case 'n':
		return '\n', 2, nil
	case 't':
		return '\t', 2, nil
	case 'r':
		return '\r', 2, nil
	case 'x':
		if len(s) < 4 {
			return 0, 0, fmt.Errorf("bad \\x escape")
		}
		v, err := strconv.ParseUint(s[2:4], 16, 8)
		if err != nil {
			return 0, 0, fmt.Errorf("bad \\x escape: %v", err)
		}
		return byte(v), 4, nil
	default:
		return s[1], 2, nil
	}
}
