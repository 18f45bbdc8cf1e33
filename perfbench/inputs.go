package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math/rand"
	"strings"

	"glade/internal/cfg"
	"glade/internal/targets"
)

// rngFor derives an independent, reproducible rng for one stream of a
// workload (an operation, a client, a batch) from the run seed. Every
// benchmark input comes from an rng made here; nothing is time-seeded.
func rngFor(seed int64, stream string, i int) *rand.Rand {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// seedID draws the k-th 12-hex-digit resource id of a stream — the id
// format glade-serve accepts in its assigned-id header.
func seedID(seed int64, stream string, k int) string {
	rng := rngFor(seed, "id:"+stream, k)
	var b [6]byte
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return hex.EncodeToString(b[:])
}

// seedsOfSize draws seeds from t.SampleSeeds until their text totals
// between size and size+size/8 bytes, redrawing the whole set when the
// last seed overshoots (after 1000 redraws it keeps the last, overshooting
// set). It is deterministic in rng.
func seedsOfSize(t *targets.Target, rng *rand.Rand, size int) []string {
	var seeds []string
	for attempt := 0; attempt < 1000; attempt++ {
		seeds = t.SampleSeeds(rng, 32)
		total := 0
		for k, s := range seeds {
			total += len(s)
			if total >= size {
				seeds = seeds[:k+1]
				break
			}
		}
		if total <= size+size/8 {
			return seeds
		}
	}
	return seeds
}

// digest is a short content hash of a grammar's canonical text.
func digest(g *cfg.Grammar) string { return textDigest(cfg.Marshal(g)) }

func textDigest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// mutate applies one seeded edit (delete, duplicate or replace a byte),
// producing a near-miss of s.
func mutate(rng *rand.Rand, s string) string {
	if s == "" {
		return string(rune('a' + rng.Intn(26)))
	}
	i := rng.Intn(len(s))
	switch rng.Intn(3) {
	case 0:
		return s[:i] + s[i+1:]
	case 1:
		return s[:i+1] + s[i:]
	default:
		const alphabet = "()<>/\"'=;:,.{}[] \nabcxyz019"
		return s[:i] + string(alphabet[rng.Intn(len(alphabet))]) + s[i+1:]
	}
}

// rungAgreement checks the production ladder against the Earley reference
// on every input, returning the first disagreement.
func rungAgreement(c *cfg.Compiled, inputs []string) (string, bool) {
	for _, in := range inputs {
		if c.Accepts(in) != c.AcceptsEarley(in) {
			return in, false
		}
	}
	return "", true
}

// quoteShort renders an input for an error message.
func quoteShort(s string) string {
	if len(s) > 60 {
		s = s[:60] + "..."
	}
	return strings.ReplaceAll(s, "\n", `\n`)
}
