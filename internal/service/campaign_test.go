package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"glade/internal/oracle"
	"glade/internal/programs"
)

// putGrepGrammar stores a small hand-written grammar recorded against the
// builtin grep program, so campaign tests skip the learning cost.
func putGrepGrammar(t *testing.T, srv *Server, id string) {
	t.Helper()
	p := programs.ByName("grep")
	// A narrow but valid slice of the grep pattern language: literal runs
	// with optional star. Everything it generates is accepted by grep.
	g := mustGrammar(t, "start A\nA -> {a-z} A\nA -> {a-z}\nA -> {a-z} \"*\"\n")
	meta := GrammarMeta{
		ID:        id,
		Oracle:    "program:grep",
		Spec:      oracle.Spec{Type: oracle.SpecProgram, Name: "grep"},
		Seeds:     p.Seeds(),
		CreatedAt: time.Now().UTC(),
		Queries:   1,
	}
	if err := srv.Store().Put(g, meta); err != nil {
		t.Fatal(err)
	}
}

// waitCampaignDone polls until the campaign reaches a terminal state.
func waitCampaignDone(t *testing.T, base, id string) CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st CampaignStatus
		getJSON(t, base+"/v1/campaigns/"+id, &st)
		if st.State == JobDone || st.State == JobFailed {
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return CampaignStatus{}
}

// TestCampaignEndToEnd is the acceptance path: a campaign against a stored
// grammar submitted over HTTP runs to completion, its watch stream carries
// incremental NDJSON checkpoints ending in a done snapshot, and a
// restarted daemon still serves the report.
func TestCampaignEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, ts := testServer(t, dir)
	putGrepGrammar(t, srv, "grepgram")

	resp, body := postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{
		GrammarID:  "grepgram",
		DurationMS: 2500,
		Workers:    4,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	// Watch: NDJSON snapshots must arrive incrementally (more than one
	// line, spread over the campaign's runtime) and the stream must close
	// with a terminal snapshot carrying the final report.
	wresp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if ct := wresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	var lines []CampaignStatus
	var firstAt, lastAt time.Time
	sc := bufio.NewScanner(wresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var snap CampaignStatus
		if err := json.Unmarshal([]byte(line), &snap); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, line)
		}
		if firstAt.IsZero() {
			firstAt = time.Now()
		}
		lastAt = time.Now()
		lines = append(lines, snap)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("watch stream error: %v", err)
	}
	if len(lines) < 2 {
		t.Fatalf("watch stream produced %d lines, want >= 2 (incremental checkpoints)", len(lines))
	}
	if lastAt.Sub(firstAt) < 500*time.Millisecond {
		t.Errorf("all %d watch lines arrived within %v; expected incremental delivery", len(lines), lastAt.Sub(firstAt))
	}
	final := lines[len(lines)-1]
	if final.State != JobDone {
		t.Fatalf("stream did not end done: %+v", final)
	}
	if final.Report == nil || !final.Report.Done || final.Report.Inputs == 0 {
		t.Fatalf("final snapshot lacks a finished report: %+v", final.Report)
	}
	if final.Report.Interesting() == 0 {
		t.Errorf("campaign found nothing interesting: %+v", final.Report.Buckets)
	}

	// Restart: a fresh server over the same data dir must still serve the
	// campaign's report.
	_, ts2 := testServer(t, dir)
	var reloaded CampaignStatus
	r2 := getJSON(t, ts2.URL+"/v1/campaigns/"+st.ID, &reloaded)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("restarted server: %d", r2.StatusCode)
	}
	if reloaded.State != JobDone || reloaded.Report == nil {
		t.Fatalf("restarted server lost the campaign: %+v", reloaded)
	}
	if reloaded.Report.Inputs != final.Report.Inputs {
		t.Errorf("report changed across restart: %d != %d inputs", reloaded.Report.Inputs, final.Report.Inputs)
	}
}

// TestCampaignLearnThenFuzz: a campaign submitted with an oracle spec (no
// stored grammar) learns one first, stores it under the campaign id, and
// then fuzzes with it.
func TestCampaignLearnThenFuzz(t *testing.T) {
	_, ts := testServer(t, t.TempDir())
	resp, body := postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{
		Oracle:     &oracle.Spec{Type: oracle.SpecTarget, Name: "url"},
		DurationMS: 1200,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	st = waitCampaignDone(t, ts.URL, st.ID)
	if st.State != JobDone {
		t.Fatalf("campaign failed: %s", st.Error)
	}
	if st.GrammarID != st.ID {
		t.Errorf("learned grammar not stored under campaign id: %q", st.GrammarID)
	}
	// The learned grammar is a first-class store entry: fetchable and
	// usable for generation.
	resp, err := http.Get(ts.URL + "/v1/grammars/" + st.GrammarID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stored campaign grammar: %d", resp.StatusCode)
	}
	if st.Report == nil || st.Report.Inputs == 0 {
		t.Fatalf("no fuzzing happened after learn: %+v", st.Report)
	}
}

// TestCampaignValidation exercises spec validation and gating.
func TestCampaignValidation(t *testing.T) {
	srv, ts := testServer(t, t.TempDir())

	// Must name exactly one source.
	resp, _ := postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty spec: got %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{GrammarID: "x", Oracle: &oracle.Spec{Type: oracle.SpecProgram, Name: "sed"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("both sources: got %d, want 400", resp.StatusCode)
	}
	// Unknown grammar is 404, not 400.
	resp, _ = postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{GrammarID: "missing"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing grammar: got %d, want 404", resp.StatusCode)
	}
	// Exec oracle specs are gated exactly like learn jobs.
	resp, _ = postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{Oracle: &oracle.Spec{Type: oracle.SpecExec, Argv: []string{"true"}}, Seeds: []string{"x"}})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("exec campaign without AllowExec: got %d, want 403", resp.StatusCode)
	}
	// ... and so are stored grammars recorded with an exec oracle.
	g := mustGrammar(t, "start A\nA -> \"a\"\n")
	if err := srv.Store().Put(g, GrammarMeta{ID: "execgram", Spec: oracle.Spec{Type: oracle.SpecExec, Argv: []string{"true"}}, Seeds: []string{"a"}, CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{GrammarID: "execgram"})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("exec-recorded grammar campaign: got %d, want 403", resp.StatusCode)
	}
	// Oversized batch is rejected.
	putGrepGrammar(t, srv, "gg")
	resp, _ = postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{GrammarID: "gg", Batch: maxCampaignBatch + 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: got %d, want 400", resp.StatusCode)
	}
	// Unknown campaign id is 404.
	r := getJSON(t, ts.URL+"/v1/campaigns/deadbeef", nil)
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("missing campaign: got %d, want 404", r.StatusCode)
	}
}

// TestCampaignShutdownPersistsReport: closing the server mid-campaign must
// stop the engine promptly and leave a checkpointed report on disk that
// the next incarnation surfaces (as a failed-but-reported campaign).
func TestCampaignShutdownPersistsReport(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{DataDir: dir, MaxCampaignDuration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	putGrepGrammar(t, srv, "gg")
	_, body := postJSON(t, ts.URL+"/v1/campaigns", CampaignSpec{GrammarID: "gg", DurationMS: 3600000})
	var st CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit: %v (%s)", err, body)
	}
	// Let it produce at least the initial checkpoint, then shut down.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var snap CampaignStatus
		getJSON(t, ts.URL+"/v1/campaigns/"+st.ID, &snap)
		if snap.State == JobRunning && snap.Report != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	done := make(chan struct{})
	go func() { srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close blocked on a running campaign")
	}
	ts.Close()

	srv2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cr, ok := srv2.Campaign(st.ID)
	if !ok {
		t.Fatal("campaign record not restored after restart")
	}
	rst := cr.status()
	if rst.Report == nil {
		t.Fatalf("restored campaign has no report: %+v", rst)
	}
	if rst.State != JobDone && rst.State != JobFailed {
		t.Fatalf("restored campaign in non-terminal state %q", rst.State)
	}
}

// TestCanceledQueuedCampaignSurvivesShutdown pins the worker step's order:
// a campaign cancelled while queued and popped only after Close cancelled
// the base context stays canceled, and is counted once, as canceled.
func TestCanceledQueuedCampaignSurvivesShutdown(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	putGrepGrammar(t, srv, "gg")
	// Install the campaign directly so no worker can pop it; the test plays
	// the worker that pops it late.
	cr := &CampaignRun{task: newTask(context.Background(), ""), Spec: CampaignSpec{GrammarID: "gg"}}
	srv.campaigns.mu.Lock()
	srv.campaigns.byID[cr.ID] = cr
	srv.campaigns.order = append(srv.campaigns.order, cr)
	srv.campaigns.mu.Unlock()

	if _, err := srv.CancelCampaign(cr.ID); err != nil {
		t.Fatal(err)
	}
	srv.cancelBase()
	srv.campaigns.step(cr)

	if st := cr.status(); st.State != JobCanceled || st.Error != "canceled by request" {
		t.Fatalf("campaign after late pop: state %q error %q, want canceled", st.State, st.Error)
	}
	snap := srv.Registry().Snapshot()
	if got := snapValue(snap, "glade_campaigns_failed_total"); got != 0 {
		t.Errorf("glade_campaigns_failed_total = %v, want 0", got)
	}
	if got := snapValue(snap, "glade_campaigns_canceled_total"); got != 1 {
		t.Errorf("glade_campaigns_canceled_total = %v, want 1", got)
	}
}
