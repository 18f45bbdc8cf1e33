package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/oracle"
	"glade/internal/programs"
)

func testServer(t *testing.T, dir string) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{DataDir: dir, MaxJobs: 2, MaxJobDuration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, data)
		}
	}
	return resp
}

// waitDone polls the job endpoint until the job reaches a terminal state.
func waitDone(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st JobStatus
		getJSON(t, base+"/v1/jobs/"+id, &st)
		if st.State.terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestEndToEndLearnServeGenerate is the acceptance path: a learn job
// submitted over HTTP yields a grammar byte-identical to core.Learn run
// directly with the same seeds and options, survives a server restart
// (store reload), and then drives fuzz generation.
func TestEndToEndLearnServeGenerate(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, dir)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Oracle: oracle.Spec{Type: oracle.SpecProgram, Name: "sed"}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, ts.URL, st.ID)
	if st.State != JobDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Stats == nil || st.Stats.OracleQueries == 0 {
		t.Fatalf("done job has no stats: %+v", st)
	}

	// The served grammar must be byte-identical to a direct engine run
	// with the same seeds and options.
	resp, err := http.Get(ts.URL + "/v1/grammars/" + st.GrammarID)
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	p := programs.ByName("sed")
	opts := core.DefaultOptions()
	opts.Timeout = time.Minute
	res, err := core.Learn(context.Background(), p.Seeds(), oracle.Func(func(s string) bool { return p.Run(s).OK }), opts)
	if err != nil {
		t.Fatal(err)
	}
	if direct := cfg.Marshal(res.Grammar); string(served) != direct {
		t.Fatalf("served grammar differs from direct core.Learn:\n-- served --\n%s\n-- direct --\n%s", served, direct)
	}

	// /metrics reflects this traffic: lifecycle and oracle counters match
	// the job, and HTTP series carry the pattern of the route that served
	// each request — a path no route matches is labeled "unmatched".
	resp, err = http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := "\n" + string(exposition)
	for _, line := range []string{
		"glade_jobs_submitted_total 1",
		"glade_jobs_done_total 1",
		fmt.Sprintf("glade_oracle_queries_total %d", st.Stats.OracleQueries),
		`glade_http_requests_total{class="2xx",route="POST /v1/jobs"} 1`,
		`glade_http_requests_total{class="4xx",route="unmatched"} 1`,
		"glade_store_grammars 1",
	} {
		if !strings.Contains(text, "\n"+line+"\n") {
			t.Errorf("/metrics lacks the line %q", line)
		}
	}
	for _, series := range []string{
		`glade_oracle_query_seconds_bucket{source="job"`,
		`glade_http_request_seconds_bucket{route="GET /v1/jobs/{id}"`,
	} {
		if !strings.Contains(text, "\n"+series) {
			t.Errorf("/metrics lacks a %s line", series)
		}
	}

	// Restart: a fresh server over the same data dir must serve the stored
	// grammar and generate from it without relearning.
	srv2, ts2 := testServer(t, dir)
	resp, err = http.Get(ts2.URL + "/v1/grammars/" + st.GrammarID)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(reloaded, served) {
		t.Fatalf("restarted server served %d / different bytes", resp.StatusCode)
	}

	var gen struct {
		Inputs   []string `json:"inputs"`
		Count    int      `json:"count"`
		Attempts int      `json:"attempts"`
	}
	resp, body = postJSON(t, ts2.URL+"/v1/grammars/"+st.GrammarID+"/generate?n=10&valid=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &gen); err != nil {
		t.Fatal(err)
	}
	if gen.Count != 10 || len(gen.Inputs) != 10 {
		t.Fatalf("generate returned %d inputs (attempts %d)", len(gen.Inputs), gen.Attempts)
	}
	for _, in := range gen.Inputs {
		if !p.Run(in).OK {
			t.Errorf("valid-filtered input rejected by program: %q", in)
		}
	}
	// Every validation query is one observation on the generate-source
	// latency series.
	if got := srv2.met.oracleGenerate.Snapshot().Count; got != uint64(gen.Attempts) {
		t.Errorf("generate latency series observed %d queries, want %d", got, gen.Attempts)
	}
}

// TestWatchStreamsProgress reads the NDJSON watch stream and checks it
// carries phase-level events ending in the terminal snapshot.
func TestWatchStreamsProgress(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	_, body := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Oracle: oracle.Spec{Type: oracle.SpecTarget, Name: "url"}})
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	phases := map[string]bool{}
	var lastLine string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		lastLine = line
		var ev core.Progress
		if err := json.Unmarshal([]byte(line), &ev); err == nil && ev.Phase != "" {
			phases[ev.Phase] = true
		}
	}
	for _, want := range []string{"seeds", "phase1", "done"} {
		if !phases[want] {
			t.Errorf("watch stream missing phase %q (saw %v)", want, phases)
		}
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(lastLine), &final); err != nil || final.State != JobDone {
		t.Fatalf("stream did not end with a done snapshot: %q (err %v)", lastLine, err)
	}
}

// TestSubmitValidation exercises spec validation failures; each case
// must fail for the reason its name gives (want is a substring of the
// error).
func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	cases := []struct {
		name string
		body string
		want string
	}{
		{"no oracle", `{"seeds":["x"]}`, "oracle spec is empty"},
		{"two oracles", `{"oracle":{"type":"program","name":"sed","argv":["true"]}}`, "cannot carry argv"},
		{"unknown program", `{"oracle":{"type":"program","name":"nope"}}`, `unknown program oracle "nope"`},
		{"unknown field", `{"oracle":{"type":"program","name":"sed"},"bogus":1}`, `unknown field "bogus"`},
		{"retired spec key", `{"oracle":{"program":"sed"}}`, `unknown field "program"`},
		{"ignored err_substring", `{"oracle":{"type":"program","name":"sed","err_substring":"error"}}`, "cannot carry err_substring"},
		{"negative timeout", `{"oracle":{"type":"program","name":"sed","timeout_ms":-1}}`, "timeout_ms must not be negative"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, tc.want) {
			t.Errorf("%s: got %d %q, want 400 naming %s", tc.name, resp.StatusCode, body.Error, tc.want)
		}
	}
}

// TestExecGating: exec oracle specs run client-chosen commands on the
// server, so without Config.AllowExec both submission and validity-
// filtered generation from an exec-recorded grammar must be refused with
// 403; with AllowExec the spec proceeds to normal validation.
func TestExecGating(t *testing.T) {
	srv, ts := testServer(t, t.TempDir())

	resp, body := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Seeds: []string{"x"}, Oracle: oracle.Spec{Type: oracle.SpecExec, Argv: []string{"true"}}})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("exec submit without AllowExec: got %d, want 403 (%s)", resp.StatusCode, body)
	}

	// A grammar recorded with an exec oracle (e.g. stored by an earlier
	// incarnation that allowed exec) must not validate through it either.
	g := mustGrammar(t, "start A\nA -> \"a\"\n")
	if err := srv.Store().Put(g, GrammarMeta{ID: "execgram", Spec: oracle.Spec{Type: oracle.SpecExec, Argv: []string{"true"}}, Seeds: []string{"a"}, CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/v1/grammars/execgram/generate?valid=1", nil)
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("valid=1 generate with exec oracle: got %d, want 403 (%s)", resp.StatusCode, body)
	}
	// Plain (unvalidated) generation never runs the oracle and stays open.
	resp, body = postJSON(t, ts.URL+"/v1/grammars/execgram/generate?n=3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("plain generate on exec-recorded grammar: got %d, want 200 (%s)", resp.StatusCode, body)
	}

	allow, err := New(Config{DataDir: t.TempDir(), AllowExec: true})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(allow.Handler())
	t.Cleanup(func() { ts2.Close(); allow.Close() })
	resp, body = postJSON(t, ts2.URL+"/v1/jobs", JobSpec{Oracle: oracle.Spec{Type: oracle.SpecExec, Argv: []string{"true"}}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "no seeds") {
		t.Errorf("exec submit with AllowExec but no seeds: got %d, want 400 no-seeds (%s)", resp.StatusCode, body)
	}
}

// TestValidGenerateCap: valid=1 may run an oracle subprocess per attempt,
// so its n cap is much lower than plain generation's.
func TestValidGenerateCap(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	resp, body := postJSON(t, ts.URL+"/v1/grammars/whatever/generate?n=501&valid=1", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("valid=1 n=501: got %d, want 400 (%s)", resp.StatusCode, body)
	}
	// The same n is fine without validation (404 only because the grammar
	// does not exist, i.e. the cap check passed).
	resp, _ = postJSON(t, ts.URL+"/v1/grammars/whatever/generate?n=501", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("plain n=501: got %d, want 404", resp.StatusCode)
	}
	// valid parses as a bool: valid=0 means plain generation (so the lower
	// cap does not apply), and a non-boolean value is rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/grammars/whatever/generate?n=501&valid=0", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("valid=0 n=501: got %d, want 404 (plain path)", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/grammars/whatever/generate?valid=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("valid=bogus: got %d, want 400", resp.StatusCode)
	}
}

// TestStatsAndListings checks /v1/stats, job and grammar listings after a
// couple of jobs.
func TestStatsAndListings(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	ids := make([]string, 0, 2)
	for _, target := range []string{"url", "lisp"} {
		_, body := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Oracle: oracle.Spec{Type: oracle.SpecTarget, Name: target}})
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st := waitDone(t, ts.URL, id); st.State != JobDone {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
	}

	var stats struct {
		Jobs         []jobStats `json:"jobs"`
		Grammars     int        `json:"grammars"`
		Done         int        `json:"done"`
		TotalQueries int        `json:"total_queries"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Done != 2 || stats.Grammars != 2 || len(stats.Jobs) != 2 {
		t.Fatalf("stats shape wrong: %+v", stats)
	}
	for _, row := range stats.Jobs {
		if row.Queries == 0 || row.OracleQueries == 0 || row.OracleSummary == "" {
			t.Errorf("job %s: missing query stats: %+v", row.ID, row)
		}
	}
	if stats.TotalQueries == 0 {
		t.Error("total_queries is zero")
	}

	var jobs struct {
		Jobs []JobStatus `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &jobs)
	if len(jobs.Jobs) != 2 {
		t.Fatalf("job listing has %d entries", len(jobs.Jobs))
	}
	var grammars struct {
		Grammars []GrammarMeta `json:"grammars"`
	}
	getJSON(t, ts.URL+"/v1/grammars", &grammars)
	if len(grammars.Grammars) != 2 {
		t.Fatalf("grammar listing has %d entries", len(grammars.Grammars))
	}
	for _, m := range grammars.Grammars {
		if len(m.Seeds) == 0 || m.Queries == 0 || m.Oracle == "" {
			t.Errorf("grammar %s: incomplete metadata: %+v", m.ID, m)
		}
	}
}

// TestConcurrentGenerate hammers one grammar's generate endpoint from many
// goroutines; with -race this exercises the concurrency claims of the
// store entry's shared fuzzer and rng pool.
func TestConcurrentGenerate(t *testing.T) {
	srv, ts := testServer(t, t.TempDir())
	_, body := postJSON(t, ts.URL+"/v1/jobs", JobSpec{Oracle: oracle.Spec{Type: oracle.SpecTarget, Name: "url"}})
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st = waitDone(t, ts.URL, st.ID); st.State != JobDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	_ = srv

	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for k := 0; k < 5; k++ {
				resp, err := http.Post(ts.URL+"/v1/grammars/"+st.GrammarID+"/generate?n=20", "application/json", nil)
				if err != nil {
					errs <- err
					return
				}
				var gen struct {
					Inputs []string `json:"inputs"`
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err := json.Unmarshal(data, &gen); err != nil {
					errs <- fmt.Errorf("bad generate response: %v", err)
					return
				}
				if len(gen.Inputs) != 20 {
					errs <- fmt.Errorf("got %d inputs", len(gen.Inputs))
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobNotFound and bad generate targets.
func TestNotFound(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	for _, url := range []string{"/v1/jobs/deadbeef", "/v1/grammars/deadbeef"} {
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404", url, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/grammars/deadbeef/generate", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("generate on missing grammar: got %d, want 404", resp.StatusCode)
	}
}
