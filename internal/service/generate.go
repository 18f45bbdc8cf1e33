package service

import (
	"context"
	"math/rand"
	"sync/atomic"
	"time"

	"glade/internal/oracle"
)

// maxValidFactor bounds the attempts a valid-only generate request may
// spend per requested input before giving up on the remainder.
const maxValidFactor = 20

// rngSeq distinguishes the rngs generate creates; combined with the clock
// it keeps every pooled rng's stream distinct.
var rngSeq atomic.Int64

// generate draws n fuzz inputs from the entry's fuzzer, building it on
// first use. When check is non-nil only inputs it accepts (verdict
// oracle.Accept — crashes and timeouts do not count as valid) are
// returned, spending at most maxValidFactor attempts per requested input;
// attempts reports how many candidates were drawn either way. Validation
// queries run under ctx, so a disconnected client or an expired server
// deadline stops a subprocess mid-run, not just between candidates; an
// oracle failure aborts the loop with its error.
func (e *cacheEntry) generate(ctx context.Context, n int, check oracle.CheckOracle) (inputs []string, attempts int, err error) {
	fz := e.fuzzer()
	rng, ok := e.rngs.Get().(*rand.Rand)
	if !ok {
		rng = rand.New(rand.NewSource(time.Now().UnixNano() ^ rngSeq.Add(1)<<20))
	}
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
		s := fz.Next(rng)
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
