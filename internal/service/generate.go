package service

import (
	"container/list"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"glade/internal/fuzz"
	"glade/internal/oracle"
)

// maxValidFactor bounds the attempts a valid-only generate request may
// spend per requested input before giving up on the remainder.
const maxValidFactor = 20

// maxFuzzerEntries bounds the fuzzer cache: a long-lived daemon may serve
// generation from far more grammars than it should hold parsed seed trees
// for at once, so least-recently-used entries are evicted (mirroring how
// maxJobHistory bounds the job ledger). An evicted grammar just pays the
// seed-parsing cost again on its next generate.
const maxFuzzerEntries = 64

// fuzzerPool caches one grammar fuzzer per stored grammar, LRU-bounded at
// maxFuzzerEntries. A fuzzer is built over the store's Compiled for the
// grammar (Store.Compiled), the same engine the check endpoint uses, so a
// grammar is compiled once per residence in the store's cache; building
// the fuzzer parses every seed under it, once per residence in this pool.
// Generation itself is cheap and runs concurrently, each request drawing
// a private rng from a per-grammar sync.Pool. fuzz.Grammar is safe for
// concurrent Next calls with distinct rngs: its flattened seed trees are
// read-only, each call copies one into scratch drawn from the fuzzer's
// own pool before mutating it, and the compiled engine is read-only after
// construction.
type fuzzerPool struct {
	store *Store

	mu      sync.Mutex
	entries map[string]*pooledFuzzer
	lru     *list.List // front = most recently used; values are grammar ids
}

type pooledFuzzer struct {
	once sync.Once
	fz   *fuzz.Grammar
	err  error
	rngs sync.Pool
	elem *list.Element // position in fuzzerPool.lru; guarded by its mu
}

func newFuzzerPool(store *Store) *fuzzerPool {
	return &fuzzerPool{store: store, entries: map[string]*pooledFuzzer{}, lru: list.New()}
}

// rngSeq distinguishes rngs created by the pool; combined with the clock
// it keeps every pooled rng's stream distinct.
var rngSeq atomic.Int64

// size reports the number of resident pool entries (a telemetry gauge).
func (p *fuzzerPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.entries)
}

func (p *fuzzerPool) entry(id string) (*pooledFuzzer, error) {
	p.mu.Lock()
	e, ok := p.entries[id]
	if ok {
		p.lru.MoveToFront(e.elem)
	} else {
		e = &pooledFuzzer{}
		e.rngs.New = func() any {
			return rand.New(rand.NewSource(time.Now().UnixNano() ^ rngSeq.Add(1)<<20))
		}
		e.elem = p.lru.PushFront(id)
		p.entries[id] = e
		// Evict the least-recently-used entries beyond the cap. In-flight
		// Generate calls hold their own reference, so an evicted entry
		// keeps working; it is simply rebuilt on its next use.
		for p.lru.Len() > maxFuzzerEntries {
			back := p.lru.Back()
			p.lru.Remove(back)
			delete(p.entries, back.Value.(string))
		}
	}
	p.mu.Unlock()

	e.once.Do(func() {
		c, err := p.store.Compiled(id)
		if err != nil {
			e.err = err
			return
		}
		meta, ok := p.store.Meta(id)
		if !ok {
			e.err = fmt.Errorf("service: no metadata for grammar %q", id)
			return
		}
		e.fz = fuzz.NewGrammarFrom(c, meta.Seeds)
	})
	if e.err != nil {
		// Do not memoize the failure: a generate that raced a still-running
		// learn job must succeed on retry once the grammar is stored. Only
		// drop the entry we created — a fresh (possibly good) replacement
		// may already be in the map.
		p.mu.Lock()
		if p.entries[id] == e {
			delete(p.entries, id)
			p.lru.Remove(e.elem)
		}
		p.mu.Unlock()
		return nil, e.err
	}
	return e, nil
}

// Generate returns n fuzz inputs drawn from the stored grammar's pooled
// fuzzer: entry resolution (possibly building the fuzzer) followed by
// generate. Callers that must separate the potentially slow build from
// deadline-bounded generation use entry + pooledFuzzer.generate directly.
func (p *fuzzerPool) Generate(ctx context.Context, id string, n int, check oracle.CheckOracle) ([]string, int, error) {
	e, err := p.entry(id)
	if err != nil {
		return nil, 0, err
	}
	return e.generate(ctx, n, check)
}

// generate draws n fuzz inputs from the built fuzzer. When check is
// non-nil only inputs it accepts (verdict oracle.Accept — crashes and
// timeouts do not count as valid) are returned, spending at most
// maxValidFactor attempts per requested input; attempts reports how many
// candidates were drawn either way. Validation queries run under ctx, so
// a disconnected client or an expired server deadline stops a subprocess
// mid-run, not just between candidates; an oracle failure aborts the loop
// with its error.
func (e *pooledFuzzer) generate(ctx context.Context, n int, check oracle.CheckOracle) (inputs []string, attempts int, err error) {
	rng := e.rngs.Get().(*rand.Rand)
	defer e.rngs.Put(rng)
	budget := n
	if check != nil {
		budget = n * maxValidFactor
	}
	inputs = make([]string, 0, n)
	for len(inputs) < n && attempts < budget {
		if err := ctx.Err(); err != nil {
			return inputs, attempts, err
		}
		s := e.fz.Next(rng)
		attempts++
		if check != nil {
			v, err := check.Check(ctx, s)
			if err != nil {
				return inputs, attempts, err
			}
			if v != oracle.Accept {
				continue
			}
		}
		inputs = append(inputs, s)
	}
	return inputs, attempts, nil
}
