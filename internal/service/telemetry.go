package service

import (
	"glade/internal/oracle"
	"glade/internal/telemetry"
)

// serverMetrics holds the server's registered instruments outside the
// task ledgers, which own their lifecycle counters and population gauges.
type serverMetrics struct {
	oracleQueries *telemetry.Counter

	// Per-source oracle latency histograms, each the mirror of the
	// metrics.QueryTimer its source's queries run through (learn jobs,
	// campaigns, validated generate).
	oracleJob      *telemetry.Histogram
	oracleCampaign *telemetry.Histogram
	oracleGenerate *telemetry.Histogram

	// Per-source resilience instruments (retries_total, breaker state and
	// opens), shared by every oracle the source builds: breaker trips are
	// per-oracle, but the exposition aggregates them per source.
	resilientJob      *oracle.ResilientMetrics
	resilientCampaign *oracle.ResilientMetrics
	resilientGenerate *oracle.ResilientMetrics

	// checkInputs counts inputs answered by POST /v1/grammars/{id}/check —
	// the cheap batch-membership endpoint's unit of work.
	checkInputs *telemetry.Counter

	// httpPanics counts handler panics contained by the recovery
	// middleware — any nonzero value is a bug worth paging on.
	httpPanics *telemetry.Counter
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	histogram := func(source string) *telemetry.Histogram {
		return reg.Histogram("glade_oracle_query_seconds",
			"Membership-oracle query latency, by query source.",
			telemetry.L("source", source))
	}
	return &serverMetrics{
		oracleQueries: reg.Counter("glade_oracle_queries_total",
			"De-duplicated oracle queries spent by completed learn jobs."),

		oracleJob:      histogram("job"),
		oracleCampaign: histogram("campaign"),
		oracleGenerate: histogram("generate"),

		resilientJob:      oracle.NewResilientMetrics(reg, telemetry.L("source", "job")),
		resilientCampaign: oracle.NewResilientMetrics(reg, telemetry.L("source", "campaign")),
		resilientGenerate: oracle.NewResilientMetrics(reg, telemetry.L("source", "generate")),

		checkInputs: reg.Counter("glade_check_inputs_total",
			"Inputs answered by the batch membership endpoint."),

		httpPanics: reg.Counter("glade_http_panics_total",
			"HTTP handler panics contained by the recovery middleware."),
	}
}

// registerGauges installs the scrape-time computed gauges outside the
// task ledgers. The callbacks run on the exposition handler's goroutine
// and take locks no scrape-path caller already holds.
func (s *Server) registerGauges() {
	s.reg.GaugeFunc("glade_store_grammars", "Grammars in the disk-backed store.", func() float64 {
		return float64(len(s.store.List()))
	})
	s.reg.GaugeFunc("glade_store_blobs", "Content-addressed grammar blobs on disk (deduplicated).", func() float64 {
		return float64(s.store.BlobCount())
	})
	s.reg.GaugeFunc("glade_store_cache_entries", "Grammars resident in the store's hot cache.", func() float64 {
		return float64(s.store.CacheLen())
	})
	s.reg.GaugeFunc("glade_validating_in_flight", "Validity-filtered generate requests holding a validation slot.", func() float64 {
		return float64(len(s.validating))
	})
	s.reg.GaugeFunc("glade_campaign_inputs", "Inputs executed across all known campaigns (latest reports).", func() float64 {
		inputs, _ := s.campaignTotals()
		return float64(inputs)
	})
	s.reg.GaugeFunc("glade_campaign_interesting", "Interesting inputs across all known campaigns (latest reports).", func() float64 {
		_, interesting := s.campaignTotals()
		return float64(interesting)
	})
}

// campaignTotals sums inputs and interesting counts over the latest report
// of every known campaign.
func (s *Server) campaignTotals() (inputs, interesting int) {
	for _, cr := range s.Campaigns() {
		cr.mu.Lock()
		if cr.hasReport {
			inputs += cr.report.Inputs
			interesting += cr.report.Interesting()
		}
		cr.mu.Unlock()
	}
	return inputs, interesting
}

// snapValue finds the value of an unlabeled counter or gauge in a registry
// snapshot; /v1/stats derives its back-compatible top-level keys this way
// so the registry is the single source of counter truth.
func snapValue(snap []telemetry.MetricPoint, name string) float64 {
	for _, p := range snap {
		if p.Name == name && len(p.Labels) == 0 {
			return p.Value
		}
	}
	return 0
}
