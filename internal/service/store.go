package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"glade/internal/cfg"
	"glade/internal/fuzz"
	"glade/internal/oracle"
)

// GrammarMeta is the JSON metadata persisted beside each stored grammar.
// Seeds are kept because rebuilding a grammar fuzzer after a restart needs
// them (the fuzzer starts every input from a parsed seed tree).
type GrammarMeta struct {
	ID     string `json:"id"`
	Oracle string `json:"oracle"` // human-readable spec, e.g. "program:sed"
	// Spec is the full oracle spec, kept so validity-filtered generation
	// can rebuild the oracle even after a restart.
	Spec      oracle.Spec `json:"oracle_spec"`
	Seeds     []string    `json:"seeds"`
	CreatedAt time.Time   `json:"created_at"`
	// Learning effort, surfaced by /v1/stats and grammar listings.
	Queries  int     `json:"queries"`
	Seconds  float64 `json:"seconds"`
	TimedOut bool    `json:"timed_out,omitempty"`
	// GrammarSHA is the SHA-256 (hex) of the grammar's canonical marshaled
	// text. Grammars are immutable, so the bytes live content-addressed at
	// blobs/<sha>.grammar and every id with identical content shares one
	// blob. OpenStore skips metadata without it.
	GrammarSHA string `json:"grammar_sha256,omitempty"`
}

// blobsDirName is the subdirectory of the store root holding
// content-addressed grammar blobs.
const blobsDirName = "blobs"

// maxCachedGrammars bounds the store's hot cache: a long-lived daemon may
// serve far more grammars than it should hold compiled ladders and parsed
// seed trees for at once. Least-recently-used entries are evicted and
// simply reload from their blob on next use, paying the parse, the
// compile and the seed parsing again.
const maxCachedGrammars = 128

// cacheEntry is one resident grammar id: its canonical text, the parsed
// form, the seeds recorded for the id, and — each built once, on first
// use — the compiled ladder that answers membership checks and the
// grammar fuzzer over that same ladder. Immutable after construction
// apart from the build-onces, so an evicted entry keeps serving the
// requests that still hold it.
//
// fuzz.Grammar is safe for concurrent Next calls with distinct rngs: its
// flattened seed trees are read-only, each call copies one into scratch
// from the fuzzer's own pool before mutating it, and the compiled engine
// is read-only after construction. Each generate draws a private rng
// from rngs.
type cacheEntry struct {
	text  string
	g     *cfg.Grammar
	seeds []string

	compileOnce sync.Once
	compiled    *cfg.Compiled

	fuzzOnce sync.Once
	fz       *fuzz.Grammar
	rngs     sync.Pool // *rand.Rand

	elem *list.Element // position in Store.lru; guarded by Store.mu
}

// engine returns the entry's compiled recognition ladder, building it on
// first use. Safe for concurrent callers.
func (e *cacheEntry) engine() *cfg.Compiled {
	e.compileOnce.Do(func() { e.compiled = cfg.Compile(e.g) })
	return e.compiled
}

// fuzzer returns the entry's grammar fuzzer over engine(), building it on
// first use; the build parses every seed under the grammar. Safe for
// concurrent callers.
func (e *cacheEntry) fuzzer() *fuzz.Grammar {
	e.fuzzOnce.Do(func() { e.fz = fuzz.NewGrammarFrom(e.engine(), e.seeds) })
	return e.fz
}

// Store is the disk-backed grammar store. Grammar bytes are immutable and
// content-addressed: blobs/<sha256>.grammar holds the canonical
// cfg.Marshal text, <id>.json metadata points at the hash, and identical
// grammars stored under any number of ids share one blob. Metadata for
// every grammar is loaded at open (so the daemon serves grammars learned
// by earlier incarnations); grammar text is loaded — and parsed, and on
// demand compiled and wrapped in a fuzzer — through an LRU hot cache
// keyed by grammar id, so repeat membership and generation traffic never
// re-reads or re-parses from disk. Writes go through a temp-file rename
// so a crash never leaves a half-written grammar behind; stale temp files
// from interrupted writes are swept at open.
type Store struct {
	dir string
	log *slog.Logger

	mu    sync.Mutex
	metas map[string]*GrammarMeta
	cache map[string]*cacheEntry // keyed by grammar id
	lru   *list.List             // front = most recently used; values are ids
}

// OpenStore opens (creating if needed) the store rooted at dir and loads
// every grammar's metadata. Entries whose metadata does not decode or
// lacks grammar_sha256 (as the pre-content-addressed flat layout,
// <id>.grammar beside <id>.json, does), or whose blob is missing, are
// skipped with a warning through logger (nil silences everything) and
// left on disk, rather than failing the open — one corrupt entry must not
// take the daemon down.
func OpenStore(dir string, logger *slog.Logger) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: store directory is empty")
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(filepath.Join(dir, blobsDirName), 0o755); err != nil {
		return nil, fmt.Errorf("service: create store: %w", err)
	}
	s := &Store{
		dir:   dir,
		log:   logger,
		metas: map[string]*GrammarMeta{},
		cache: map[string]*cacheEntry{},
		lru:   list.New(),
	}
	s.sweepTemp()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: read store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		id, ok := strings.CutSuffix(name, ".json")
		if !ok || e.IsDir() {
			continue
		}
		metaBytes, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			s.log.Warn("store: skipping unreadable metadata", "file", name, "err", err)
			continue
		}
		var meta GrammarMeta
		if err := json.Unmarshal(metaBytes, &meta); err != nil || meta.ID != id || meta.GrammarSHA == "" {
			s.log.Warn("store: skipping bad metadata", "file", name)
			continue
		}
		if _, err := os.Stat(s.blobPath(meta.GrammarSHA)); err != nil {
			s.log.Warn("store: skipping entry with missing blob", "id", id, "sha", meta.GrammarSHA)
			continue
		}
		s.metas[id] = &meta
	}
	return s, nil
}

// sweepTemp removes stale .tmp-* files left by writeAtomic calls that were
// interrupted between create and rename — without it a crashy daemon's
// data dir accumulates them forever. Swept at open across the store root
// and its subdirectories (blobs, jobs, campaigns).
func (s *Store) sweepTemp() {
	dirs := []string{s.dir}
	if entries, err := os.ReadDir(s.dir); err == nil {
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(s.dir, e.Name()))
			}
		}
	}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasPrefix(e.Name(), ".tmp-") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			if err := os.Remove(path); err != nil {
				s.log.Warn("store: could not sweep temp file", "file", path, "err", err)
				continue
			}
			s.log.Debug("store: swept stale temp file", "file", path)
		}
	}
}

// contentSHA returns the hex SHA-256 of the grammar bytes — the blob name.
func contentSHA(text []byte) string {
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:])
}

// blobPath maps a content hash to its blob file.
func (s *Store) blobPath(sha string) string {
	return filepath.Join(s.dir, blobsDirName, sha+".grammar")
}

// ensureBlob writes the grammar bytes under their hash unless an identical
// blob is already present — the dedup point: storing the same grammar
// twice (under any ids) costs one blob.
func (s *Store) ensureBlob(sha string, text []byte) error {
	path := s.blobPath(sha)
	if _, err := os.Stat(path); err == nil {
		return nil // identical content already stored
	}
	return writeAtomic(path, text)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Put persists a learned grammar and its metadata, then publishes it to
// readers, replacing any resident entry for the id. The grammar is stored
// in cfg.Marshal text form — the same bytes GET /v1/grammars/{id} serves —
// under its content hash; identical grammars already stored are
// deduplicated to the existing blob.
func (s *Store) Put(g *cfg.Grammar, meta GrammarMeta) error {
	if meta.ID == "" {
		return fmt.Errorf("service: store: empty grammar id")
	}
	text := cfg.Marshal(g)
	sha := contentSHA([]byte(text))
	meta.GrammarSHA = sha
	metaBytes, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := s.ensureBlob(sha, []byte(text)); err != nil {
		return err
	}
	if err := writeAtomic(filepath.Join(s.dir, meta.ID+".json"), append(metaBytes, '\n')); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := meta
	s.metas[meta.ID] = &m
	s.insertLocked(meta.ID, &cacheEntry{text: text, g: g, seeds: meta.Seeds})
	return nil
}

// writeAtomic writes data via a temp file + rename so readers (and future
// opens) never observe a torn file.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// insertLocked makes e the id's cache entry, replacing an older one, and
// evicts beyond the cap. Callers hold s.mu.
func (s *Store) insertLocked(id string, e *cacheEntry) {
	if old, ok := s.cache[id]; ok {
		s.lru.Remove(old.elem)
	}
	e.elem = s.lru.PushFront(id)
	s.cache[id] = e
	for s.lru.Len() > maxCachedGrammars {
		back := s.lru.Back()
		s.lru.Remove(back)
		delete(s.cache, back.Value.(string))
	}
}

// entry resolves a grammar id to its resident cache entry, loading and
// parsing the blob on a miss. The steady-state path — the one every
// membership check, generation, and text fetch rides — is one map lookup
// plus an LRU bump: no disk, no parse, no allocation. An entry exists
// only once Put has stored the id or its blob has loaded, so a request
// for an id that is not stored yet leaves nothing behind.
func (s *Store) entry(id string) (*cacheEntry, error) {
	s.mu.Lock()
	if e, ok := s.cache[id]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		return e, nil
	}
	meta, ok := s.metas[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: no grammar %q", id)
	}

	// Miss: load and parse outside the lock (a cold blob read must not
	// stall hot lookups), then publish. A racing loader or Put may have
	// inserted the id meanwhile — use theirs, drop ours.
	text, err := os.ReadFile(s.blobPath(meta.GrammarSHA))
	if err != nil {
		return nil, fmt.Errorf("service: grammar %q: %w", id, err)
	}
	g, err := cfg.Unmarshal(string(text))
	if err != nil {
		return nil, fmt.Errorf("service: grammar %q: %w", id, err)
	}
	e := &cacheEntry{text: string(text), g: g, seeds: meta.Seeds}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prior, ok := s.cache[id]; ok {
		s.lru.MoveToFront(prior.elem)
		return prior, nil
	}
	s.insertLocked(id, e)
	return e, nil
}

// Text returns the stored cfg.Marshal text of a grammar.
func (s *Store) Text(id string) (string, bool) {
	e, err := s.entry(id)
	if err != nil {
		return "", false
	}
	return e.text, true
}

// Grammar returns the parsed grammar, cached across calls.
func (s *Store) Grammar(id string) (*cfg.Grammar, error) {
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	return e.g, nil
}

// Compiled returns the grammar's compiled recognition ladder, built once
// per resident cache entry — membership traffic (POST
// /v1/grammars/{id}/check) never re-parses or re-compiles from disk at
// steady state, and the entry's fuzzer runs on the same ladder.
func (s *Store) Compiled(id string) (*cfg.Compiled, error) {
	e, err := s.entry(id)
	if err != nil {
		return nil, err
	}
	return e.engine(), nil
}

// Meta returns a grammar's metadata.
func (s *Store) Meta(id string) (GrammarMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.metas[id]
	if !ok {
		return GrammarMeta{}, false
	}
	return *m, true
}

// List returns every stored grammar's metadata, newest first.
func (s *Store) List() []GrammarMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GrammarMeta, 0, len(s.metas))
	for _, m := range s.metas {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].ID < out[j].ID
		}
		return out[i].CreatedAt.After(out[j].CreatedAt)
	})
	return out
}

// CacheLen reports resident hot-cache entries (a telemetry gauge).
func (s *Store) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// BlobCount counts content-addressed blobs on disk. With deduplication it
// can be smaller than the number of stored grammar ids; exposed as a
// telemetry gauge and asserted by the dedup tests.
func (s *Store) BlobCount() int {
	entries, err := os.ReadDir(filepath.Join(s.dir, blobsDirName))
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".grammar") {
			n++
		}
	}
	return n
}
