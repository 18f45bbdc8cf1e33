// Command perfbench is the repository benchmark: one fresh process per
// workload run, a fixed amount of work derived from --seed, output checks,
// and one JSON result line on stdout.
//
//	perfbench --workload learn|learn-exec|serve|campaign --seed N --seconds S --trace 0|1
//
// --seconds sizes the work, not a deadline: each workload turns it into a
// fixed operation count (its calibrated rate times S), so the same seed and
// seconds always run the same operations. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the first half of the operations twice, untraced
// then traced through the benchmark's own wrappers, and reports the
// per-layer metrics. `perfbench oracle SPEC` is the lean stdin oracle the
// learn-exec workload's jobs execute.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart approximates process start; it misses runtime start-up and
// the imported packages' initialization, which run before main's.
var processStart = time.Now()

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is a scratch directory under .bench_build for the workloads'
	// grammar stores; removed on exit.
	dir string
}

// opCount turns a workload's calibrated rate into the fixed number of
// operations a run of rc.seconds performs.
func (rc runConfig) opCount(perSecond float64) int {
	return max(1, int(math.Round(perSecond*rc.seconds)))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*result, error){
	"learn":      runLearn,
	"learn-exec": runLearnExec,
	"serve":      runServe,
	"campaign":   runCampaign,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "oracle" {
		os.Exit(stdinOracle(os.Args[2:]))
	}
	os.Exit(benchMain())
}

func benchMain() int {
	workload := flag.String("workload", "", "workload: learn, learn-exec, serve or campaign")
	seed := flag.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 10, "run size in seconds at the calibrated rate")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	rc := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}

	cpu0 := readCPUStat()
	res, err := run(context.Background(), rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rc.workload, err)
		return 1
	}
	printHost(cpu0, readCPUStat())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// printHost prints the host facts a result depends on, one JSON line
// before the result. steal_pct is the share of the machine's CPU time the
// hypervisor gave to other guests during the run: on a shared virtual
// machine it explains most run-to-run variation in the timings.
func printHost(before, after cpuStat) {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	if total := after.total - before.total; total > 0 {
		host["steal_pct"] = 100 * float64(after.steal-before.steal) / float64(total)
	}
	line, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(line))
}

// cpuStat is the machine-wide CPU time counters of /proc/stat, in ticks.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads the aggregate cpu line of /proc/stat; it returns zeros
// where that file does not exist.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	var st cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		// Fields: user nice system idle iowait irq softirq steal guest
		// guest_nice; guest time is already counted in user and nice.
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(ln, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setupReps is how many times each run builds its workload state; setup_s
// is their median.
const setupReps = 5

// repeatSetup builds a workload's state setupReps times, closing all but
// the last, and returns it with the setup durations. The first build is
// timed from process start.
func repeatSetup[T interface{ close() }](build func() (T, error)) (T, []time.Duration, error) {
	var st T
	var durs []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		next, err := build()
		if err != nil {
			return st, nil, err
		}
		durs = append(durs, time.Since(t0))
		if i < setupReps-1 {
			next.close()
		} else {
			st = next
		}
	}
	return st, durs, nil
}

// endToEnd assembles the end-to-end metrics every workload reports.
// latMS holds one latency per attempted operation (+Inf when it failed);
// work is the run's unit of work (learns, jobs, requests, inputs) done in
// elapsed, which leaves out the benchmark's own output checks; and
// queriesPerOp is the workload's per-operation query count.
func endToEnd(setup []time.Duration, latMS []float64, elapsed time.Duration, work, queriesPerOp float64) map[string]metric {
	setupS := make([]float64, len(setup))
	for i, d := range setup {
		setupS[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"op_p50_ms":      {quantile(latMS, 0.50), "ms"},
		"op_p90_ms":      {quantile(latMS, 0.90), "ms"},
		"op_p99_ms":      {quantile(latMS, 0.99), "ms"},
		"work_per_s":     {work / elapsed.Seconds(), "1/s"},
		"queries_per_op": {queriesPerOp, "count"},
		"peak_rss_mb":    {peakRSSMB(), "MB"},
	}
}

// countFailed returns how many latencies mark a failed operation.
func countFailed(latMS []float64) int {
	n := 0
	for _, l := range latMS {
		if math.IsInf(l, 1) {
			n++
		}
	}
	return n
}

// traceDir receives the traced runs' span dumps, relative to the working
// directory.
const traceDir = ".bench_build/trace"

// perLayer lists every per-layer metric with its unit. A traced run prints
// all of them; a layer the workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.phase1_self_ms", "ms"},
	{"core.chargen_self_ms", "ms"},
	{"core.phase2_self_ms", "ms"},
	{"core.other_self_ms", "ms"},
	{"core.checks_per_op", "count"},
	{"core.discarded_checks_per_op", "count"},
	{"core.merge_pairs_per_op", "count"},
	{"oracle.busy_ms_per_op", "ms"},
	{"oracle.share", "ratio"},
	{"oracle.query_ms_p50", "ms"},
	{"oracle.parallelism", "ratio"},
	{"oracle.cache_hit_ratio", "ratio"},
	{"oracle.waves_per_op", "count"},
	{"oracle.spec_waste_ratio", "ratio"},
	{"service.submit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.job_overhead_ms", "ms"},
	{"service.check_ms", "ms"},
	{"service.generate_ms", "ms"},
	{"service.check_overhead_ms", "ms"},
	{"service.store_lookup_ns", "ns"},
	{"cluster.proxied_share", "ratio"},
	{"cluster.hop_ms", "ms"},
	{"cfg.ladder_us_per_input.sed", "us"},
	{"cfg.ladder_us_per_input.xml", "us"},
	{"cfg.ladder_us_per_input.json", "us"},
	{"cfg.dfa_share.sed", "ratio"},
	{"cfg.dfa_share.xml", "ratio"},
	{"cfg.dfa_share.json", "ratio"},
	{"cfg.earley_share.sed", "ratio"},
	{"cfg.earley_share.xml", "ratio"},
	{"cfg.earley_share.json", "ratio"},
	{"fuzz.sample_us", "us"},
	{"fuzz.naive_us", "us"},
	{"campaign.waves_per_op", "count"},
	{"campaign.dup_ratio", "ratio"},
	{"campaign.findings_per_kinput", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_per_op", "count"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics renders a traced run's measurements as the full per-layer
// metric set.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
	}
	return out
}

// overheadPct compares the traced pass's wall time with the untraced
// pass's over the same operations.
func overheadPct(plain, traced time.Duration) float64 {
	return 100 * (traced.Seconds()/plain.Seconds() - 1)
}

// finish builds the result line. checkErr is the first failed output
// check; it is reported on stderr and marks the run incorrect.
func finish(rc runConfig, latMS []float64, checkErr error, metrics map[string]metric) *result {
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", rc.workload, checkErr)
	}
	// JSON has no infinity: a percentile that falls on failed operations
	// reads as the largest float, missing every limit, and a metric with no
	// successful sample reads 0. Either way the run is already incorrect.
	for name, m := range metrics {
		switch {
		case math.IsInf(m.Value, 1):
			metrics[name] = metric{math.MaxFloat64, m.Unit}
		case math.IsNaN(m.Value) || math.IsInf(m.Value, -1):
			metrics[name] = metric{0, m.Unit}
		}
	}
	return &result{
		Correct:   checkErr == nil,
		Attempted: len(latMS),
		Failed:    countFailed(latMS),
		Metrics:   metrics,
	}
}
