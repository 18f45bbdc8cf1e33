package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"glade/internal/bench"
)

// jsonReport is the -json output: one machine-readable row per figure
// measurement.
type jsonReport struct {
	GeneratedAt time.Time  `json:"generated_at"`
	Config      jsonConfig `json:"config"`
	Results     []jsonRow  `json:"results"`
}

type jsonConfig struct {
	Seeds       int     `json:"seeds"`
	EvalSamples int     `json:"eval_samples"`
	FuzzSamples int     `json:"fuzz_samples"`
	TimeoutSec  float64 `json:"timeout_sec"`
	Workers     int     `json:"workers"`
	RandSeed    int64   `json:"rand_seed"`
}

// jsonRow is one measurement. Figure names the source experiment; the
// remaining fields apply where the experiment defines them.
type jsonRow struct {
	Figure    string  `json:"figure"`
	Program   string  `json:"program,omitempty"`
	Target    string  `json:"target,omitempty"`
	Learner   string  `json:"learner,omitempty"`
	Variant   string  `json:"variant,omitempty"`
	Queries   int     `json:"queries,omitempty"`
	Seconds   float64 `json:"seconds,omitempty"`
	Precision float64 `json:"precision,omitempty"`
	Recall    float64 `json:"recall,omitempty"`
	F1        float64 `json:"f1,omitempty"`
	TimedOut  bool    `json:"timed_out,omitempty"`
}

// report collects rows while figures run; nil (no -json flag) collects
// nothing.
var report *jsonReport

func recordRows(rows ...jsonRow) {
	if report != nil {
		report.Results = append(report.Results, rows...)
	}
}

func recordFig4(rows []bench.LearnerRow) {
	for _, r := range rows {
		recordRows(jsonRow{
			Figure: "fig4", Target: r.Target, Learner: r.Learner,
			Precision: r.Precision, Recall: r.Recall, F1: r.F1,
			Seconds: r.Seconds, TimedOut: r.TimedOut,
		})
	}
}

func recordFig6(rows []bench.ProgramRow) {
	for _, r := range rows {
		recordRows(jsonRow{
			Figure: "fig6", Program: r.Program,
			Queries: r.Queries, Seconds: r.Seconds,
		})
	}
}

func recordAblations(rows []bench.AblationRow) {
	for _, r := range rows {
		recordRows(jsonRow{
			Figure: "ablations", Target: r.Target, Variant: r.Variant,
			Precision: r.Precision, Recall: r.Recall, F1: r.F1,
			Queries: r.Queries, Seconds: r.Seconds,
		})
	}
}

// writeReport emits the collected rows to path.
func writeReport(path string, c bench.Config) {
	report.GeneratedAt = time.Now().UTC()
	report.Config = jsonConfig{
		Seeds:       c.Seeds,
		EvalSamples: c.EvalSamples,
		FuzzSamples: c.FuzzSamples,
		TimeoutSec:  c.Timeout.Seconds(),
		Workers:     c.Workers,
		RandSeed:    c.RandSeed,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	fail(err)
	fail(os.WriteFile(path, append(data, '\n'), 0o644))
	fmt.Fprintf(os.Stderr, "# %d result rows written to %s\n", len(report.Results), path)
}
