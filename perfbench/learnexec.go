package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/cluster"
	"glade/internal/core"
	"glade/internal/oracle"
	"glade/internal/service"
	"glade/internal/targets"
	"glade/internal/telemetry"
)

// The learn-exec workload: the paper's setting, where every query runs a
// program. Learn jobs go through glade-serve's job API on one in-process
// node (behind its one-peer cluster.Router) with AllowExec set; the exec
// oracle re-runs this binary in its stdin-oracle mode. One client submits
// jobs one after another: POST /v1/jobs with "workers": 2, then
// GET /v1/jobs/{id}?watch=1 until the job ends. Oracle dispatch, the
// Parallel pool, speculation and the Cached layer dominate; it is also the
// only workload that writes job records and grammar blobs to the store.
//
// Every job learns the url target from 12 bytes of seed text: among the
// §8.2 targets, url's query count varies least between seed sets of one
// size (about ±7%, against ±30% for grep and lisp), so a run of a dozen
// jobs has a steady median and tail.
const (
	learnExecRate      = 0.9 // jobs per second of --seconds
	learnExecWorkers   = 2
	learnExecTarget    = "url"
	learnExecSeedBytes = 12 // seed text per job
)

// execAlphabetExtra is glade-serve's character-generalization alphabet rule
// for exec oracles: the seeds' bytes plus these structural bytes. The
// Workers=1 replay must use the same alphabet to learn the same grammar.
const execAlphabetExtra = " \t\nabcxyz012<>()[]{}/\\\"'"

// stdinOracle is the lean exec-oracle mode: `perfbench oracle SPEC` reads
// one input from stdin and exits 0 iff the registry oracle SPEC accepts it.
func stdinOracle(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench oracle SPEC")
		return 2
	}
	spec, err := oracle.ParseSpec(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	o, _, err := spec.Build(oracle.BuildOptions{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	input, err := io.ReadAll(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	v, err := o.Check(context.Background(), string(input))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if v != oracle.Accept {
		return 1
	}
	return 0
}

// learnExecJob is one job of the fixed list.
type learnExecJob struct {
	id     string
	target string
	seeds  []string
}

// learnExecJobs draws n jobs from the seed; ids come from their own
// stream, so a second pass over the same seeds can use fresh ids.
func learnExecJobs(seed int64, idStream string, n int) []learnExecJob {
	jobs := make([]learnExecJob, n)
	for i := range jobs {
		rng := rngFor(seed, "learn-exec", i)
		jobs[i] = learnExecJob{
			id:     seedID(seed, idStream, i),
			target: learnExecTarget,
			seeds:  seedsOfSize(targets.ByName(learnExecTarget), rng, learnExecSeedBytes),
		}
	}
	return jobs
}

// learnExecState is the learn-exec workload after setup.
type learnExecState struct {
	srv    *service.Server
	http   *http.Server
	done   chan struct{}
	base   string
	client *http.Client
	self   string
	jobs   []learnExecJob
	reg    *telemetry.Registry
	// trace receives the router and service spans of the node's requests;
	// the middleware is installed only in traced runs.
	trace traceSwitch
}

func (st *learnExecState) close() {
	st.client.CloseIdleConnections()
	st.http.Close()
	<-st.done
	st.srv.Close()
}

func newLearnExecState(ctx context.Context, rc runConfig, rep, n int) (*learnExecState, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	quiet := slog.New(slog.DiscardHandler)
	reg := telemetry.NewRegistry()
	srv, err := service.New(service.Config{
		DataDir:   filepath.Join(rc.dir, fmt.Sprintf("learn-exec%d", rep)),
		AllowExec: true,
		Logger:    quiet,
		Registry:  reg,
	})
	if err != nil {
		ln.Close()
		return nil, err
	}
	ring, err := cluster.NewRing([]string{addr}, 0)
	if err != nil {
		ln.Close()
		srv.Close()
		return nil, err
	}
	st := &learnExecState{
		srv:    srv,
		done:   make(chan struct{}),
		base:   "http://" + addr,
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		self:   self,
		jobs:   learnExecJobs(rc.seed, "learn-exec", n),
		reg:    reg,
	}
	var local http.Handler = srv.Handler()
	if rc.trace {
		local = st.trace.layer("service", 0, local)
	}
	router, err := cluster.NewRouter(addr, ring, cluster.NewProber(addr, ring.Peers(), 0, quiet), local, quiet)
	if err != nil {
		ln.Close()
		srv.Close()
		return nil, err
	}
	var front http.Handler = router
	if rc.trace {
		front = st.trace.layer("router", 0, front)
	}
	st.http = &http.Server{Handler: front, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(st.done)
		if err := st.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			slog.Error("perfbench: learn-exec node", "err", err)
		}
	}()
	// Warm-up: one seed-independent job on a target's documentation
	// seeds, which also starts the exec oracle once.
	warm := learnExecJob{id: seedID(0, "learn-exec-warm", rep), target: "grep", seeds: targets.ByName("grep").DocSeeds[:2]}
	if out := st.run(ctx, warm); out.err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up job: %w", out.err)
	}
	return st, nil
}

// learnExecOutcome is one job as the client saw it.
type learnExecOutcome struct {
	latency time.Duration
	submit  time.Duration
	status  service.JobStatus
	text    string // served grammar
	err     error
}

// run submits one job under its seed-drawn id, watches it to the end and
// fetches its grammar. The latency covers submit and watch; the grammar
// fetch belongs to the output check.
func (st *learnExecState) run(ctx context.Context, job learnExecJob) learnExecOutcome {
	spec := service.JobSpec{
		Seeds:   job.seeds,
		Oracle:  oracle.Spec{Type: oracle.SpecExec, Argv: []string{st.self, "oracle", "target:" + job.target}},
		Options: &service.JobOptions{Workers: learnExecWorkers},
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return learnExecOutcome{err: err}
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return learnExecOutcome{err: err}
	}
	req.Header.Set(service.AssignedIDHeader, job.id)
	req.Header.Set(requestIDHeader, job.id)
	resp, err := st.client.Do(req)
	if err != nil {
		return learnExecOutcome{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	submit := time.Since(start)
	if err != nil {
		return learnExecOutcome{err: err}
	}
	if resp.StatusCode != http.StatusAccepted {
		return learnExecOutcome{err: fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))}
	}
	status, err := st.watch(ctx, job.id)
	out := learnExecOutcome{latency: time.Since(start), submit: submit, status: status, err: err}
	if err != nil {
		return out
	}
	if status.State != service.JobDone {
		out.err = fmt.Errorf("job %s ended %s: %s", job.id, status.State, status.Error)
		return out
	}
	out.text, out.err = st.get(ctx, "/v1/grammars/"+status.GrammarID)
	return out
}

// watch streams GET /v1/jobs/{id}?watch=1 and returns the final snapshot,
// the stream's last line.
func (st *learnExecState) watch(ctx context.Context, id string) (service.JobStatus, error) {
	var status service.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+"/v1/jobs/"+id+"?watch=1", nil)
	if err != nil {
		return status, err
	}
	req.Header.Set(requestIDHeader, id)
	resp, err := st.client.Do(req)
	if err != nil {
		return status, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return status, fmt.Errorf("watch %s: status %d", id, resp.StatusCode)
	}
	var last []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return status, fmt.Errorf("watch %s: %w", id, err)
	}
	if err := json.Unmarshal(last, &status); err != nil {
		return status, fmt.Errorf("watch %s: final line: %w", id, err)
	}
	return status, nil
}

func (st *learnExecState) get(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.base+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(data), nil
}

// replay learns the job in-process at Workers=1 with the same predicate
// and the service's exec alphabet rule; the served grammar must match it
// byte for byte.
func replay(ctx context.Context, job learnExecJob) (*core.Result, error) {
	o, _, err := oracle.Spec{Type: oracle.SpecTarget, Name: job.target}.Build(oracle.BuildOptions{})
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Workers = 1
	opts.GenAlphabet = bytesets.OfString(strings.Join(job.seeds, "")).Union(bytesets.OfString(execAlphabetExtra))
	return core.Learn(ctx, job.seeds, o, opts)
}

// learnExecCheck is one job's verified outcome.
type learnExecCheck struct {
	latMS      float64
	queries    int // Workers=2 queries, as the service reported them
	seqQueries int // Workers=1 queries of the replay
}

func (st *learnExecState) check(ctx context.Context, job learnExecJob, out learnExecOutcome) (learnExecCheck, error) {
	if out.err != nil {
		return learnExecCheck{latMS: math.Inf(1)}, fmt.Errorf("job %s (%s): %w", job.id, job.target, out.err)
	}
	res, err := replay(ctx, job)
	if err != nil {
		return learnExecCheck{latMS: math.Inf(1)}, fmt.Errorf("job %s (%s): replay: %w", job.id, job.target, err)
	}
	c := learnExecCheck{latMS: ms(out.latency), seqQueries: res.Stats.OracleQueries}
	if out.status.Stats != nil {
		c.queries = out.status.Stats.OracleQueries
	}
	if want := cfg.Marshal(res.Grammar); out.text != want {
		return c, fmt.Errorf("job %s (%s): served grammar %s differs from the Workers=1 replay %s",
			job.id, job.target, textDigest(out.text), textDigest(want))
	}
	return c, nil
}

// jobHist is the service's oracle-latency histogram for learn jobs.
func (st *learnExecState) jobHist() *telemetry.Histogram {
	return st.reg.Histogram("glade_oracle_query_seconds", "Membership-oracle query latency, by query source.",
		telemetry.L("source", "job"))
}

func (st *learnExecState) pass(ctx context.Context, jobs []learnExecJob) ([]learnExecOutcome, time.Duration) {
	outs := make([]learnExecOutcome, len(jobs))
	start := time.Now()
	for i, job := range jobs {
		outs[i] = st.run(ctx, job)
	}
	return outs, time.Since(start)
}

// summary checks every job and returns latencies and query counts.
func (st *learnExecState) summary(ctx context.Context, jobs []learnExecJob, outs []learnExecOutcome) ([]learnExecCheck, error) {
	var first error
	checks := make([]learnExecCheck, len(outs))
	for i, out := range outs {
		c, err := st.check(ctx, jobs[i], out)
		checks[i] = c
		if err != nil && first == nil {
			first = err
		}
	}
	return checks, first
}

func runLearnExec(ctx context.Context, rc runConfig) (*result, error) {
	n := rc.opCount(learnExecRate)
	rep := 0
	st, setup, err := repeatSetup(func() (*learnExecState, error) {
		rep++
		return newLearnExecState(ctx, rc, rep, n)
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	if !rc.trace {
		outs, elapsed := st.pass(ctx, st.jobs)
		checks, cerr := st.summary(ctx, st.jobs, outs)
		latMS, queries := make([]float64, len(checks)), 0.0
		for i, c := range checks {
			latMS[i] = c.latMS
			queries += float64(c.queries)
		}
		return finish(rc, latMS, cerr, endToEnd(setup, latMS, elapsed, float64(len(outs)), queries/float64(len(outs)))), nil
	}

	// The oracle metrics come from the service's own registry (the
	// Config.Registry the benchmark passed in) and the job records; the
	// traced pass re-runs the same jobs under fresh ids with the HTTP
	// middleware recording.
	half := (n + 1) / 2
	h0 := readHeap()
	plain, plainElapsed := st.pass(ctx, st.jobs[:half])
	h1 := readHeap()
	jobs := learnExecJobs(rc.seed, "learn-exec-traced", half)
	t := newTracer()
	st.trace.t.Store(t)
	hist := st.jobHist()
	before := hist.Snapshot()
	outs, elapsed := st.pass(ctx, jobs)
	after := hist.Snapshot()
	st.trace.t.Store(nil)
	checks, cerr := st.summary(ctx, jobs, outs)
	if _, perr := st.summary(ctx, st.jobs[:half], plain); perr != nil && cerr == nil {
		cerr = perr
	}

	var latMS []float64
	var wall, submit, queue, overhead, run time.Duration
	var q2, q1, hits, waves float64
	for i, out := range outs {
		latMS = append(latMS, checks[i].latMS)
		wall += out.latency
		if out.err != nil || out.status.Started == nil || out.status.Finished == nil || out.status.Stats == nil {
			continue
		}
		s := out.status
		submit += out.submit
		queue += s.Started.Sub(s.Created)
		jobRun := s.Finished.Sub(*s.Started)
		run += jobRun
		overhead += out.latency - jobRun
		q2 += float64(s.Stats.OracleQueries)
		q1 += float64(checks[i].seqQueries)
		hits += float64(s.Stats.CacheHits)
		waves += float64(s.Stats.Waves)
	}
	busy := after.Sum - before.Sum
	perOp := 1 / float64(len(outs))
	layers := map[string]float64{
		"oracle.busy_ms_per_op":   ms(busy) * perOp,
		"oracle.share":            busy.Seconds() / wall.Seconds(),
		"oracle.query_ms_p50":     ms(histDelta(before, after).Quantile(0.5)),
		"oracle.parallelism":      busy.Seconds() / run.Seconds(),
		"oracle.cache_hit_ratio":  hits / (hits + q2),
		"oracle.waves_per_op":     waves * perOp,
		"oracle.spec_waste_ratio": (q2 - q1) / q2,
		"service.submit_ms":       ms(submit) * perOp,
		"service.queue_ms":        ms(queue) * perOp,
		"service.job_overhead_ms": ms(overhead) * perOp,
		"trace.overhead_pct":      overheadPct(plainElapsed, elapsed),
	}
	layers["runtime.alloc_mb_per_op"], layers["runtime.gc_per_op"] = runtimePerOp(h0, h1, len(jobs))
	if err := t.write(traceDir, traceFile(rc)); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return finish(rc, latMS, cerr, layerMetrics(layers)), nil
}

// histDelta is the histogram of the observations between two snapshots.
func histDelta(before, after telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	d := telemetry.HistogramSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	for i := range d.Buckets {
		d.Buckets[i] = after.Buckets[i] - before.Buckets[i]
	}
	return d
}
