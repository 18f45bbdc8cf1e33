package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"glade/internal/core"
	"glade/internal/oracle"
)

// TestWatchIncrementalDelivery pins the NDJSON ?watch=1 contract at the
// streaming level: each progress event is delivered to an already-connected
// watcher as its own line soon after it is emitted (not batched until the
// job ends), and the stream closes by itself once the job reaches a
// terminal state. The job is driven by hand so the timing is deterministic.
func TestWatchIncrementalDelivery(t *testing.T) {
	srv, ts := testServer(t, t.TempDir())

	// Install a queued job directly in the ledger; the test plays the role
	// of the scheduler worker.
	j := &Job{task: newTask(context.Background(), ""), Spec: JobSpec{Oracle: oracle.Spec{Type: oracle.SpecProgram, Name: "grep"}}}
	srv.jobs.mu.Lock()
	srv.jobs.byID[j.ID] = j
	srv.jobs.order = append(srv.jobs.order, j)
	srv.jobs.mu.Unlock()

	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "?watch=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	lines := make(chan string)
	go func() {
		defer close(lines)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()

	readLine := func(what string) string {
		t.Helper()
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream closed early waiting for %s", what)
			}
			return line
		case <-time.After(5 * time.Second):
			t.Fatalf("no line within 5s waiting for %s", what)
		}
		return ""
	}
	assertNoLine := func(what string) {
		t.Helper()
		select {
		case line, ok := <-lines:
			if ok {
				t.Fatalf("unexpected line while %s: %q", what, line)
			}
			t.Fatalf("stream closed while %s", what)
		case <-time.After(150 * time.Millisecond):
		}
	}

	// Nothing has happened yet: the watcher must be blocked, not fed.
	assertNoLine("job is idle")

	// Each emitted event must arrive as its own line, promptly.
	for i, phase := range []string{"seeds", "phase1", "chargen"} {
		j.appendEvent(core.Progress{Phase: phase, Seed: 1, Seeds: 1, Queries: i})
		var ev core.Progress
		if err := json.Unmarshal([]byte(readLine(phase)), &ev); err != nil {
			t.Fatalf("bad event line: %v", err)
		}
		if ev.Phase != phase {
			t.Fatalf("line %d: phase %q, want %q", i, ev.Phase, phase)
		}
		assertNoLine("waiting between events")
	}

	// Terminal state: the final snapshot line arrives and the stream ends.
	j.mu.Lock()
	j.state = JobFailed
	j.err = "stopped by test"
	j.finished = time.Now()
	j.touch()
	j.mu.Unlock()

	var final JobStatus
	if err := json.Unmarshal([]byte(readLine("final snapshot")), &final); err != nil {
		t.Fatalf("bad final line: %v", err)
	}
	if final.State != JobFailed || final.Error != "stopped by test" {
		t.Fatalf("final snapshot wrong: %+v", final)
	}
	select {
	case line, ok := <-lines:
		if ok {
			t.Fatalf("line after terminal snapshot: %q", line)
		}
		// closed: the server ended the stream on completion.
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after the job finished")
	}
}
