package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"glade/internal/core"
	"glade/internal/oracle"
)

// TestWatchAfterOverflow drives a job past the event-buffer bound and
// checks watchers keep receiving the newest event (sampled) rather than
// going silent until the terminal snapshot.
func TestWatchAfterOverflow(t *testing.T) {
	j := &Job{task: newTask(context.Background(), "")}
	total := maxEvents + 300
	for i := 0; i < total; i++ {
		j.appendEvent(core.Progress{Phase: "chargen", Checks: i})
	}

	// A watcher that consumed everything buffered so far must still be
	// offered each newer event as it lands.
	fresh, cursor, _, _ := j.watch(0)
	if len(fresh) != maxEvents || cursor != total {
		t.Fatalf("first drain: %d events, cursor %d (want %d, %d)", len(fresh), cursor, maxEvents, total)
	}
	if got := fresh[len(fresh)-1].Checks; got != total-1 {
		t.Fatalf("drain did not end with the newest event: checks=%d", got)
	}
	if head := fresh[maxEvents-2].Checks; head != maxEvents-2 {
		t.Fatalf("exact head corrupted: checks=%d at slot %d", head, maxEvents-2)
	}

	j.appendEvent(core.Progress{Phase: "phase2", Checks: total})
	fresh, cursor, _, _ = j.watch(cursor)
	if len(fresh) != 1 || fresh[0].Checks != total {
		t.Fatalf("post-overflow event not delivered: %+v", fresh)
	}
	if fresh2, _, _, _ := j.watch(cursor); len(fresh2) != 0 {
		t.Fatalf("cursor at tip still yielded %d events", len(fresh2))
	}
}

// TestGenerateRetryAfterEarlyRequest checks a generate that arrives before
// the grammar exists does not poison the fuzzer pool for that id.
func TestGenerateRetryAfterEarlyRequest(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := newFuzzerPool(store)
	if _, _, err := pool.Generate(context.Background(), "early", 3, nil); err == nil {
		t.Fatal("generate for a missing grammar succeeded")
	}
	g := mustGrammar(t, "start A\nA -> \"ab\"\n")
	if err := store.Put(g, GrammarMeta{ID: "early", Seeds: []string{"ab"}, CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	inputs, _, err := pool.Generate(context.Background(), "early", 3, nil)
	if err != nil {
		t.Fatalf("generate after store still failing: %v", err)
	}
	if len(inputs) != 3 {
		t.Fatalf("got %d inputs", len(inputs))
	}
}

// TestGenerateRespectsContext checks a canceled request stops the
// validity-filter loop instead of burning the full attempt budget.
func TestGenerateRespectsContext(t *testing.T) {
	store, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pool := newFuzzerPool(store)
	g := mustGrammar(t, "start A\nA -> \"ab\"\n")
	if err := store.Put(g, GrammarMeta{ID: "g", Seeds: []string{"ab"}, CreatedAt: time.Now()}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	attemptsSeen := 0
	reject := oracle.CheckFunc(func(context.Context, string) (oracle.Verdict, error) {
		attemptsSeen++
		if attemptsSeen == 3 {
			cancel()
		}
		return oracle.Reject, nil
	})
	_, attempts, err := pool.Generate(ctx, "g", 100, reject)
	if err == nil {
		t.Fatal("canceled generate returned nil error")
	}
	if attempts > 4 {
		t.Fatalf("cancellation ignored: %d attempts", attempts)
	}
}

// TestPruneKeepsActiveJobs checks ledger pruning evicts only finished
// tasks and only beyond the history bound, for both task kinds.
func TestPruneKeepsActiveJobs(t *testing.T) {
	testPruneKeepsActive(t, func(b *task) *Job { return &Job{task: b} })
	testPruneKeepsActive(t, func(b *task) *CampaignRun { return &CampaignRun{task: b} })
}

func testPruneKeepsActive[T tasker](t *testing.T, wrap func(*task) T) {
	l := &ledger[T]{byID: map[string]T{}}
	mk := func(state JobState) T {
		b := newTask(context.Background(), "")
		b.state = state
		tk := wrap(b)
		l.byID[b.ID] = tk
		l.order = append(l.order, tk)
		return tk
	}
	running := mk(JobRunning)
	for i := 0; i < maxHistory+10; i++ {
		mk(JobDone)
	}
	l.mu.Lock()
	l.pruneLocked()
	l.mu.Unlock()
	if len(l.order) != maxHistory {
		t.Fatalf("%T ledger size %d after prune, want %d", running, len(l.order), maxHistory)
	}
	if _, ok := l.byID[running.base().ID]; !ok {
		t.Fatalf("running %T was evicted", running)
	}
	if l.order[0].base() != running.base() {
		t.Fatalf("running %T lost its slot", running)
	}
}

// TestWorkersClamped checks a job spec cannot demand unbounded oracle
// concurrency.
func TestWorkersClamped(t *testing.T) {
	cfg := Config{DataDir: "x"}.withDefaults()
	spec := JobSpec{Options: &JobOptions{Workers: 1 << 30}}
	opts := spec.resolveOptions(cfg, []string{"s"})
	if opts.Workers != cfg.MaxWorkers {
		t.Fatalf("Workers = %d, want clamp at %d", opts.Workers, cfg.MaxWorkers)
	}
	spec.Options.Workers = 2
	if got := spec.resolveOptions(cfg, []string{"s"}).Workers; got != 2 {
		t.Fatalf("modest Workers mangled: %d", got)
	}
}

// TestExecTimeoutBoundedByContext replaces the old server-side clamp test:
// the client-chosen per-query exec timeout no longer needs clamping,
// because every query runs under the caller's context — here, a deadline
// far shorter than the requested hour-long per-query timeout kills the
// subprocess and surfaces the context error.
func TestExecTimeoutBoundedByContext(t *testing.T) {
	if testing.Short() {
		t.Skip("exec oracle spawns processes")
	}
	sp := oracle.Spec{Type: oracle.SpecExec, Argv: []string{"sleep", "30"}, TimeoutMS: 3600_000}
	o, _, err := buildOracle(sp, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.(*oracle.Exec).Timeout; got != 3600*time.Second {
		t.Fatalf("requested per-query timeout mangled: %v", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = o.Check(ctx, "x")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Check err = %v, want ctx deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("context did not bound the query: %v", elapsed)
	}
}
