package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestMetricsMatchBenchmarkJSON keeps the metrics the binary prints in
// step with the names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	printed := func(ms map[string]metric) map[string]string {
		out := map[string]string{}
		for name, m := range ms {
			out[name] = m.Unit
		}
		return out
	}
	e2e := endToEnd([]time.Duration{time.Second}, []float64{1, 2}, time.Second, 2, 1)
	if got, want := printed(e2e), declared(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
	}
	if got, want := printed(layerMetrics(nil)), declared(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
	}
	declaredWorkloads := map[string]bool{}
	for _, w := range spec.Workloads {
		declaredWorkloads[w.Name] = true
	}
	runners := map[string]bool{}
	for name := range workloads {
		runners[name] = true
	}
	if !reflect.DeepEqual(runners, declaredWorkloads) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", runners, declaredWorkloads)
	}
}
