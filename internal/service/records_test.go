package service

import (
	"os"
	"testing"
)

// TestRestoreEarlierRecords opens a server on job and campaign records
// written by an earlier release of glade-serve, from before jobs and
// campaigns shared one ledger: a done job with stats and spans, a job
// canceled while queued, a done campaign with its report, and a campaign
// record a crashed daemon left running. Records must stay loadable across
// releases, and the restored outcomes must count toward the lifecycle
// counters.
func TestRestoreEarlierRecords(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/records")); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	j, ok := srv.Job("2249503fba61")
	if !ok {
		t.Fatal("done job not restored")
	}
	st := j.status(true)
	if st.State != JobDone || st.GrammarID != st.ID || st.Oracle != "target:url" || st.Seeds != 3 {
		t.Fatalf("done job restored as %+v", st)
	}
	if st.Stats == nil || st.Stats.OracleQueries != 9857 || len(st.Spans) == 0 {
		t.Fatalf("done job lost its stats or spans: stats %+v, %d spans", st.Stats, len(st.Spans))
	}
	j, ok = srv.Job("5d2e69c757b7")
	if !ok {
		t.Fatal("canceled job not restored")
	}
	if st := j.status(false); st.State != JobCanceled || st.Error != "canceled by request" || st.Started != nil {
		t.Fatalf("canceled job restored as %+v", st)
	}

	cr, ok := srv.Campaign("f39ea66e21d2")
	if !ok {
		t.Fatal("done campaign not restored")
	}
	if cst := cr.status(); cst.State != JobDone || cst.GrammarID != "grepgram0001" || cst.Report == nil || cst.Report.Inputs != 159 || !cst.Report.Done {
		t.Fatalf("done campaign restored as %+v", cst)
	}
	cr, ok = srv.Campaign("c022ff5249a3")
	if !ok {
		t.Fatal("running campaign not restored")
	}
	cst := cr.status()
	if cst.State != JobFailed || cst.Error != "daemon restarted before the campaign finished" || cst.Report == nil || cst.Finished == nil {
		t.Fatalf("crashed campaign restored as %+v", cst)
	}

	snap := srv.Registry().Snapshot()
	for name, want := range map[string]float64{
		"glade_jobs_done_total":          1,
		"glade_jobs_failed_total":        0,
		"glade_jobs_canceled_total":      1,
		"glade_campaigns_done_total":     1,
		"glade_campaigns_failed_total":   1,
		"glade_campaigns_canceled_total": 0,
		"glade_oracle_queries_total":     9857,
	} {
		if got := snapValue(snap, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// The crashed campaign's failure is written back, so the next restart
	// reads a terminal record.
	srv.Close()
	srv2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cr, _ = srv2.Campaign("c022ff5249a3")
	if again := cr.status(); again.State != JobFailed || !again.Finished.Equal(*cst.Finished) {
		t.Fatalf("crashed campaign after second restart: %+v", again)
	}
}
