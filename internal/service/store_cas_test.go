package service

import (
	"context"
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
// stored under two ids shares one blob on disk; a different grammar gets
// its own blob.
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
	for _, id := range []string{"first", "second"} {
		c, err := s.Compiled(id)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Accepts("a") || c.Accepts("0") {
			t.Fatalf("compiled engine of %s answers wrong grammar", id)
		}
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
// than the hot cache holds: the cache must stay LRU-bounded, so a
// long-lived daemon's memory does not grow with every grammar ever used,
// and evicted entries must transparently reload from their blobs. An
// entry's fuzzer, resident or rebuilt after a reload, must run on the
// store's own Compiled rather than compile the grammar a second time.
func TestStoreCacheEviction(t *testing.T) {
	s, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n := maxCachedGrammars + 8
	texts := make([]string, n)
	for i := 0; i < n; i++ {
		// Distinct content per id so every entry is its own blob.
		word := strings.Repeat("x", i+1)
		texts[i] = "start A\nA -> \"" + word + "\"\n"
		g := mustGrammar(t, texts[i])
		if err := s.Put(g, GrammarMeta{ID: idFor(i), Seeds: []string{word}, CreatedAt: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	size, lruLen := len(s.cache), s.lru.Len()
	_, oldestOK := s.cache[idFor(0)]
	_, newestOK := s.cache[idFor(n-1)]
	s.mu.Unlock()
	if size != maxCachedGrammars || lruLen != size || s.CacheLen() != size {
		t.Fatalf("cache holds %d entries (lru %d), want %d", size, lruLen, maxCachedGrammars)
	}
	if oldestOK || !newestOK {
		t.Fatalf("LRU order wrong: oldest present=%v newest present=%v", oldestOK, newestOK)
	}
	// The oldest entries were evicted; reading them must reload and parse
	// from the blob with identical bytes.
	for i := 0; i < 4; i++ {
		text, ok := s.Text(idFor(i))
		if !ok || text != texts[i] {
			t.Fatalf("evicted entry %d did not reload (ok=%v)", i, ok)
		}
	}
	for _, i := range []int{0, n - 1} {
		e, err := s.entry(idFor(i))
		if err != nil {
			t.Fatal(err)
		}
		inputs, _, err := e.generate(context.Background(), 1, nil)
		if err != nil || len(inputs) != 1 || inputs[0] != strings.Repeat("x", i+1) {
			t.Fatalf("generate from %s: %v (%q)", idFor(i), err, inputs)
		}
		c, err := s.Compiled(idFor(i))
		if err != nil || e.fuzzer().Compiled() != c {
			t.Fatalf("fuzzer of %s does not run on the store's Compiled (%v)", idFor(i), err)
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
