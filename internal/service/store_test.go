package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"glade/internal/cfg"
	"glade/internal/oracle"
)

func mustGrammar(t *testing.T, text string) *cfg.Grammar {
	t.Helper()
	g, err := cfg.Unmarshal(text)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStoreRoundTripAndReload(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGrammar(t, "start A\nA -> \"a\" B\nB -> {0-9}\nB ->\n")
	meta := GrammarMeta{
		ID:        "abc123",
		Oracle:    "program:sed",
		Spec:      oracle.Spec{Type: oracle.SpecProgram, Name: "sed"},
		Seeds:     []string{"a1", "a"},
		CreatedAt: time.Now().UTC().Truncate(time.Second),
		Queries:   42,
		Seconds:   1.5,
	}
	if err := s.Put(g, meta); err != nil {
		t.Fatal(err)
	}
	text, ok := s.Text("abc123")
	if !ok || text != cfg.Marshal(g) {
		t.Fatalf("stored text mismatch (ok=%v)", ok)
	}
	if _, err := s.Grammar("abc123"); err != nil {
		t.Fatal(err)
	}

	// A fresh open over the same directory sees the same grammar and
	// metadata — the restart-survival contract.
	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	text2, ok := s2.Text("abc123")
	if !ok || text2 != text {
		t.Fatalf("reloaded text mismatch (ok=%v)", ok)
	}
	m2, ok := s2.Meta("abc123")
	if !ok || m2.Oracle != meta.Oracle || len(m2.Seeds) != 2 || m2.Queries != 42 || m2.Spec.Name != "sed" {
		t.Fatalf("reloaded metadata mismatch: %+v", m2)
	}
	g2, err := s2.Grammar("abc123")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Marshal(g2) != cfg.Marshal(g) {
		t.Fatal("reloaded grammar differs")
	}
}

func TestStoreSkipsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := mustGrammar(t, "start A\nA -> \"ok\"\n")
	if err := s.Put(good, GrammarMeta{ID: "good", CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	// A metadata file without a grammar, a grammar without metadata, a
	// grammar that does not parse, and a well-formed entry of the retired
	// flat layout (metadata without grammar_sha256).
	os.WriteFile(filepath.Join(dir, "orphanmeta.json"), []byte(`{"id":"orphanmeta"}`), 0o644)
	os.WriteFile(filepath.Join(dir, "orphangrammar.grammar"), []byte("start A\nA -> \"x\"\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "bad.json"), []byte(`{"id":"bad"}`), 0o644)
	os.WriteFile(filepath.Join(dir, "bad.grammar"), []byte("not a grammar"), 0o644)
	writeLegacyEntry(t, dir, "flat", "start A\nA -> \"a\"\n")

	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	list := s2.List()
	if len(list) != 1 || list[0].ID != "good" {
		t.Fatalf("expected only the good entry, got %+v", list)
	}
	// Skipped entries are left on disk untouched.
	for _, name := range []string{"flat.json", "flat.grammar"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("skipped entry file %s: %v", name, err)
		}
	}
}

func TestStoreListOrder(t *testing.T) {
	s, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGrammar(t, "start A\nA -> \"a\"\n")
	base := time.Now().UTC()
	for i, id := range []string{"first", "second", "third"} {
		if err := s.Put(g, GrammarMeta{ID: id, CreatedAt: base.Add(time.Duration(i) * time.Second)}); err != nil {
			t.Fatal(err)
		}
	}
	list := s.List()
	if len(list) != 3 || list[0].ID != "third" || list[2].ID != "first" {
		t.Fatalf("list not newest-first: %+v", list)
	}
}
