package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"glade/internal/cfg"
)

// writeLegacyEntry lays down a well-formed entry of the pre-CAS flat
// layout: <id>.grammar beside <id>.json metadata with no grammar_sha256
// field, which OpenStore skips.
func writeLegacyEntry(t *testing.T, dir, id, text string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, id+".grammar"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	meta := map[string]any{
		"id":         id,
		"oracle":     "program:sed",
		"seeds":      []string{"a1"},
		"created_at": time.Now().UTC().Format(time.RFC3339),
		"queries":    7,
		"seconds":    0.5,
	}
	data, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, id+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStorePutDeduplicates pins the CAS dedup contract: the same grammar
// stored under two ids shares one blob, one cache entry, and one compiled
// engine; a different grammar gets its own blob.
func TestStorePutDeduplicates(t *testing.T) {
	s, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGrammar(t, "start A\nA -> \"a\"\nA -> \"b\"\n")
	other := mustGrammar(t, "start A\nA -> {0-9}\n")
	for _, id := range []string{"first", "second"} {
		if err := s.Put(g, GrammarMeta{ID: id, CreatedAt: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(other, GrammarMeta{ID: "third", CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if n := s.BlobCount(); n != 2 {
		t.Fatalf("3 ids over 2 distinct grammars should store 2 blobs, got %d", n)
	}
	m1, _ := s.Meta("first")
	m2, _ := s.Meta("second")
	m3, _ := s.Meta("third")
	if m1.GrammarSHA != m2.GrammarSHA || m1.GrammarSHA == m3.GrammarSHA {
		t.Fatalf("hash sharing wrong: %s %s %s", m1.GrammarSHA, m2.GrammarSHA, m3.GrammarSHA)
	}
	c1, err := s.Compiled("first")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.Compiled("second")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("identical grammars under different ids should share one compiled engine")
	}
	if !c1.Accepts("a") || c1.Accepts("0") {
		t.Fatal("compiled engine answers wrong grammar")
	}
	c3, err := s.Compiled("third")
	if err != nil {
		t.Fatal(err)
	}
	if !c3.Accepts("0") || c3.Accepts("a") {
		t.Fatal("distinct grammar compiled wrong")
	}
}

// TestStoreSweepsTempFiles pins the interrupted-write cleanup: stale
// .tmp-* files anywhere in the data dir are removed at open, real entries
// untouched.
func TestStoreSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := mustGrammar(t, "start A\nA -> \"ok\"\n")
	if err := s.Put(g, GrammarMeta{ID: "keep", CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	stale := []string{
		filepath.Join(dir, ".tmp-123456"),
		filepath.Join(dir, blobsDirName, ".tmp-abcdef"),
	}
	for _, p := range stale {
		if err := os.WriteFile(p, []byte("torn write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range stale {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("stale temp file %s survived the sweep (err=%v)", p, err)
		}
	}
	if text, ok := s2.Text("keep"); !ok || text != cfg.Marshal(g) {
		t.Fatalf("sweep damaged a real entry (ok=%v)", ok)
	}
}

// TestStoreCacheEviction drives more distinct grammars through the store
// than the hot cache holds: evicted entries must transparently reload from
// their blobs.
func TestStoreCacheEviction(t *testing.T) {
	s, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := maxCachedGrammars + 8
	texts := make([]string, n)
	for i := 0; i < n; i++ {
		// Distinct content per id so every entry is its own blob.
		texts[i] = "start A\nA -> \"" + strings.Repeat("x", i+1) + "\"\n"
		g := mustGrammar(t, texts[i])
		if err := s.Put(g, GrammarMeta{ID: idFor(i), CreatedAt: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CacheLen(); got > maxCachedGrammars {
		t.Fatalf("cache exceeded its cap: %d > %d", got, maxCachedGrammars)
	}
	// The oldest entries were evicted; reading them must reload and parse
	// from the blob with identical bytes.
	for i := 0; i < 4; i++ {
		text, ok := s.Text(idFor(i))
		if !ok || text != texts[i] {
			t.Fatalf("evicted entry %d did not reload (ok=%v)", i, ok)
		}
	}
}

func idFor(i int) string { return fmt.Sprintf("g%03d", i) }

// BenchmarkStoreRepeatLookups pins the satellite fix for the old
// read-and-reparse-per-call Store.Grammar: steady-state repeat lookups of
// Text, Grammar, and Compiled must be allocation-light map hits, not disk
// reads.
func BenchmarkStoreRepeatLookups(b *testing.B) {
	s, err := OpenStore(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfg.Unmarshal("start A\nA -> \"a\" A\nA -> {0-9}\n")
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put(g, GrammarMeta{ID: "bench", CreatedAt: time.Now()}); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Compiled("bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Text("bench"); !ok {
			b.Fatal("lost grammar")
		}
		if _, err := s.Grammar("bench"); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Compiled("bench"); err != nil {
			b.Fatal(err)
		}
	}
}
