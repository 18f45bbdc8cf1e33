package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"glade/internal/metrics"
)

// Report is a campaign's checkpointed state: execution counters, per-bucket
// interesting-input totals, the retained corpus, oracle query timing, and
// grammar-refresh history. The engine writes it as indented JSON to
// Config.ReportPath every Config.ReportEvery and once more at completion,
// so a campaign killed at any point leaves a usable report behind.
type Report struct {
	// StartedAt and UpdatedAt bound the observed window; ElapsedSeconds is
	// their difference, kept explicit for report consumers.
	StartedAt      time.Time `json:"started_at"`
	UpdatedAt      time.Time `json:"updated_at"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	// Waves counts completed batches; Inputs counts executed (post-dedup)
	// inputs; Duplicates counts candidates skipped as already executed.
	Waves      int `json:"waves"`
	Inputs     int `json:"inputs"`
	Duplicates int `json:"duplicates"`
	// Accepted and Rejected split the oracle's verdicts over Inputs;
	// crashes and timeouts count as rejections here and appear in Buckets.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Buckets is the per-bucket interesting-input total; Corpus holds the
	// retained entries themselves (at most 100 per bucket; see maxBucket).
	Buckets map[Bucket]int `json:"buckets"`
	Corpus  []Entry        `json:"corpus"`
	// Refreshes counts completed grammar refreshes; GrammarSymbols is the
	// current grammar's size (it grows when refresh absorbs accept flips).
	Refreshes      int `json:"refreshes"`
	GrammarSymbols int `json:"grammar_symbols"`
	// Queries is the oracle-level timing snapshot (latency, throughput).
	Queries metrics.QueryStats `json:"queries"`
	// DiffOracle names the second oracle of a differential campaign (empty
	// otherwise); DiffDisagreements counts inputs on which the two oracles'
	// boolean answers differed, and DiffQueries is the diff oracle's own
	// timing snapshot.
	DiffOracle        string              `json:"diff_oracle,omitempty"`
	DiffDisagreements int                 `json:"diff_disagreements,omitempty"`
	DiffQueries       *metrics.QueryStats `json:"diff_queries,omitempty"`
	// OracleOutages counts waves dropped because the oracle failed
	// transiently (retries exhausted or breaker open); the campaign
	// pauses and continues instead of finalizing. OracleRetries and
	// BreakerOpens mirror the oracle's Resilient-layer counters when the
	// oracle stack has one (zero otherwise).
	OracleOutages int    `json:"oracle_outages,omitempty"`
	OracleRetries uint64 `json:"oracle_retries,omitempty"`
	BreakerOpens  uint64 `json:"breaker_opens,omitempty"`
	// Done is false in periodic checkpoints and true in the final report.
	Done bool `json:"done"`
}

// Interesting sums the per-bucket totals — the campaign's headline number.
func (r Report) Interesting() int {
	n := 0
	for _, c := range r.Buckets {
		n += c
	}
	return n
}

// WriteFile atomically writes the report as indented JSON to path,
// creating parent directories as needed. Atomicity (temp file + rename)
// means a reader — or the next daemon incarnation — never observes a torn
// report.
func (r Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".campaign-*")
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
