package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"glade/internal/telemetry"
)

// JobState is the lifecycle of a learn job or a campaign.
type JobState string

const (
	JobQueued   JobState = "queued"   // accepted, waiting for a scheduler slot
	JobRunning  JobState = "running"  // learning (or, for campaigns, fuzzing)
	JobDone     JobState = "done"     // finished; the grammar or report is available
	JobFailed   JobState = "failed"   // finished unsuccessfully; Error says why
	JobCanceled JobState = "canceled" // cancelled by DELETE before finishing; distinct from failed
)

// terminal reports whether the state is final (no further transitions).
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// task is the lifecycle state learn jobs and campaigns share. Mutable
// fields are guarded by mu; changed is closed and replaced on every
// mutation so watchers can block for "anything new" without polling.
type task struct {
	ID string

	mu      sync.Mutex
	changed chan struct{}
	version int // counts mutations
	state   JobState
	err     string
	created time.Time
	started time.Time
	// finished is set once the task reaches a terminal state.
	finished time.Time
	// cancel aborts the running task's context. cancelRequested records
	// that a DELETE asked for cancellation, so the run's exit lands in
	// canceled rather than failed.
	cancel          func()
	cancelRequested bool
	// reqID is the submitting HTTP request's ID ("" for direct Submit
	// calls); immutable after creation, threaded through lifecycle logs.
	reqID string
}

// newTask returns a queued task under id (a fresh one when id is empty)
// submitted by the request carried in ctx.
func newTask(ctx context.Context, id string) *task {
	if id == "" {
		id = newID()
	}
	return &task{ID: id, changed: make(chan struct{}), state: JobQueued, created: time.Now(), reqID: requestID(ctx)}
}

// touch wakes every watcher. Callers hold mu.
func (b *task) touch() {
	b.version++
	close(b.changed)
	b.changed = make(chan struct{})
}

// update applies fn under mu and wakes every watcher.
func (b *task) update(fn func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn()
	b.touch()
}

// endLocked moves the task to a terminal state. Callers hold mu and have
// checked that the task is not terminal yet.
func (b *task) endLocked(state JobState, msg string) {
	b.state = state
	b.err = msg
	b.finished = time.Now()
	b.cancel = nil
	b.touch()
}

// timePtr renders an unset time as an absent JSON field.
func timePtr(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	return &t
}

// newID returns a 12-hex-digit random identifier.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("service: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// taskRecord is the part of a persisted record every task kind shares.
type taskRecord struct {
	ID       string    `json:"id"`
	State    JobState  `json:"state"`
	Created  time.Time `json:"created_at"`
	Started  time.Time `json:"started_at,omitempty"`
	Finished time.Time `json:"finished_at,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// recordLocked returns the shared record fields. Callers hold mu.
func (b *task) recordLocked() taskRecord {
	return taskRecord{ID: b.ID, State: b.state, Created: b.created, Started: b.started, Finished: b.finished, Error: b.err}
}

// task rebuilds the lifecycle state of a record read from the file named
// after id.
func (r taskRecord) task(id string) (*task, error) {
	if r.ID != id {
		return nil, fmt.Errorf("record for %q names id %q", id, r.ID)
	}
	return &task{ID: r.ID, changed: make(chan struct{}), state: r.State, err: r.Error,
		created: r.Created, started: r.Started, finished: r.Finished}, nil
}

// tasker is what a task kind (Job, CampaignRun) supplies to its ledger.
type tasker interface {
	base() *task
	// snapshot is the wire status answered on submit, list, and cancel.
	snapshot() any
	// recordLocked is the JSON record persisted for the task; callers
	// hold the task's mu.
	recordLocked() any
}

// maxHistory bounds the terminal tasks a ledger keeps in memory.
// Grammars, reports, and records live on in the store; only the
// in-memory ledger is pruned.
const maxHistory = 1024

// ledger owns the lifecycle of one task kind: the queue and its workers,
// submission, lookup and listing, pruning, cancellation, the terminal
// transition with its lifecycle counter, the records under
// <data>/<name>s/, and the queued/running gauges. The kind supplies only
// its run function and its record decoder.
type ledger[T tasker] struct {
	name     string // "job" or "campaign": log key, error text
	dir      string // record directory
	log      *slog.Logger
	draining *atomic.Bool
	// shutdown is cancelled when Close begins; a task popped after that
	// never runs.
	shutdown context.Context
	// run executes a popped, non-terminal task and ends it with finish.
	run func(T)
	// restore decodes the record stored in file id.json.
	restore func(id string, data []byte) (T, error)

	submitted, done, failed, canceled *telemetry.Counter

	mu     sync.Mutex
	byID   map[string]T
	order  []T    // submission order, for listing
	queue  chan T // waiting tasks; Config.QueueDepth bounds it
	closed bool
	wg     sync.WaitGroup
}

// newLedger builds the ledger of one task kind and registers its metrics.
// noun names the kind in metric help text; runningHelp describes its
// running gauge.
func newLedger[T tasker](s *Server, name, noun, runningHelp string, run func(T), restore func(string, []byte) (T, error)) *ledger[T] {
	plural := name + "s"
	l := &ledger[T]{
		name:     name,
		dir:      filepath.Join(s.store.Dir(), plural),
		log:      s.log,
		draining: &s.draining,
		shutdown: s.baseCtx,
		run:      run,
		restore:  restore,
		byID:     map[string]T{},
		queue:    make(chan T, s.cfg.QueueDepth),
	}
	help := noun + " that reached this terminal state (including records restored from disk)."
	l.submitted = s.reg.Counter("glade_"+plural+"_submitted_total", noun+" accepted by this process.")
	l.done = s.reg.Counter("glade_"+plural+"_done_total", help)
	l.failed = s.reg.Counter("glade_"+plural+"_failed_total", help)
	l.canceled = s.reg.Counter("glade_"+plural+"_canceled_total", help)
	s.reg.GaugeFunc("glade_"+plural+"_queued", noun+" waiting for a scheduler slot.", l.population(JobQueued))
	s.reg.GaugeFunc("glade_"+plural+"_running", runningHelp, l.population(JobRunning))
	return l
}

// logger returns the base logger with the task's identity attached, so
// every lifecycle line carries its ID and, when it arrived over HTTP, the
// submitting request's ID.
func (l *ledger[T]) logger(t T) *slog.Logger {
	b := t.base()
	lg := l.log.With(l.name, b.ID)
	if b.reqID != "" {
		lg = lg.With("req", b.reqID)
	}
	return lg
}

// get returns a task by id.
func (l *ledger[T]) get(id string) (T, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	t, ok := l.byID[id]
	return t, ok
}

// list returns the tasks in submission order.
func (l *ledger[T]) list() []T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]T(nil), l.order...)
}

// population returns a gauge callback counting the tasks in state.
func (l *ledger[T]) population(state JobState) func() float64 {
	return func() float64 {
		n := 0
		for _, t := range l.list() {
			b := t.base()
			b.mu.Lock()
			if b.state == state {
				n++
			}
			b.mu.Unlock()
		}
		return float64(n)
	}
}

// submit enqueues a new task, refusing it when a caller-assigned id is
// malformed or taken, once draining begins, or when the queue is full.
// attrs ride on the "queued" log line.
func (l *ledger[T]) submit(t T, attrs ...any) error {
	id := t.base().ID
	if !IsValidID(id) {
		return fmt.Errorf("bad assigned id %q", id)
	}
	l.mu.Lock()
	// Refuse new work from the moment draining begins (Drain or Close):
	// a task accepted now might be abandoned mid-shutdown.
	if l.closed || l.draining.Load() {
		l.mu.Unlock()
		return errDraining
	}
	if _, dup := l.byID[id]; dup {
		l.mu.Unlock()
		return fmt.Errorf("%w: %s %q", errDuplicateID, l.name, id)
	}
	select {
	case l.queue <- t:
	default:
		l.mu.Unlock()
		return fmt.Errorf("%s %w", l.name, errQueueFull)
	}
	l.byID[id] = t
	l.order = append(l.order, t)
	l.pruneLocked()
	l.mu.Unlock()
	l.submitted.Inc()
	l.logger(t).Info(l.name+" queued", attrs...)
	return nil
}

// pruneLocked evicts the oldest terminal tasks once the ledger outgrows
// maxHistory, so a long-lived daemon's memory stays bounded. Queued and
// running tasks are never evicted; evicted tasks keep their record on
// disk. Callers hold l.mu; a task's mu nests under it (no path locks them
// in the opposite order).
func (l *ledger[T]) pruneLocked() {
	excess := len(l.order) - maxHistory
	if excess <= 0 {
		return
	}
	kept := l.order[:0]
	for _, t := range l.order {
		if excess > 0 {
			b := t.base()
			b.mu.Lock()
			terminal := b.state.terminal()
			b.mu.Unlock()
			if terminal {
				delete(l.byID, b.ID)
				excess--
				continue
			}
		}
		kept = append(kept, t)
	}
	l.order = kept
}

// start launches n workers draining the queue; n bounds the kind's
// concurrently running tasks.
func (l *ledger[T]) start(n int) {
	for i := 0; i < n; i++ {
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			for t := range l.queue {
				l.step(t)
			}
		}()
	}
}

// step handles one popped task: a task already terminal (cancelled while
// queued) is skipped, a task popped after shutdown began fails without
// running, and any other task runs.
func (l *ledger[T]) step(t T) {
	b := t.base()
	b.mu.Lock()
	terminal := b.state.terminal()
	b.mu.Unlock()
	switch {
	case terminal:
	case l.shutdown.Err() != nil:
		l.finish(t, fmt.Errorf("server shut down before the %s ran", l.name))
	default:
		l.run(t)
	}
}

// stop closes the queue to submissions and fails whatever is still queued
// (shutdown has begun, so step never runs it). Idempotent.
func (l *ledger[T]) stop() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.queue) // submit holds l.mu around its send, so this is safe
	}
	l.mu.Unlock()
	for t := range l.queue {
		l.step(t)
	}
}

// begin moves a popped task to running with cancel as its abort, unless a
// DELETE already ended it; the run must return when begin reports false.
func (b *task) begin(cancel func()) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state.terminal() {
		return false
	}
	b.state = JobRunning
	b.started = time.Now()
	b.cancel = cancel
	b.touch()
	return true
}

// canceledByRequest reports whether a DELETE asked for the task's
// cancellation.
func (b *task) canceledByRequest() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cancelRequested
}

// cancel cancels a task by id: a queued task flips to canceled at once
// (its worker will skip it), a running task has its context cancelled and
// reaches canceled when its run unwinds. Cancelling a task already in a
// terminal state reports errAlreadyTerminal.
func (l *ledger[T]) cancel(id string) (T, error) {
	t, ok := l.get(id)
	if !ok {
		return t, fmt.Errorf("%w: no %s %q", errNotFound, l.name, id)
	}
	b := t.base()
	b.mu.Lock()
	if b.state.terminal() {
		b.mu.Unlock()
		return t, errAlreadyTerminal
	}
	b.cancelRequested = true
	if b.state == JobQueued {
		b.endLocked(JobCanceled, "canceled by request")
		l.persistLocked(t)
		b.mu.Unlock()
		l.settle(t, JobCanceled)
		return t, nil
	}
	cancel := b.cancel // set by begin with the running state
	b.mu.Unlock()
	cancel()
	l.logger(t).Info(l.name + " cancellation requested")
	return t, nil
}

// finish moves t to its terminal state unless it already reached one:
// done when err is nil, canceled when a DELETE asked for it, failed
// otherwise. It returns the state entered, or "" when t was already
// terminal. attrs, passed with a nil err, ride on the "done" log line.
func (l *ledger[T]) finish(t T, err error, attrs ...any) JobState {
	b := t.base()
	b.mu.Lock()
	if b.state.terminal() {
		b.mu.Unlock()
		return ""
	}
	state, msg := JobDone, ""
	switch {
	case err == nil:
	case b.cancelRequested:
		state, msg = JobCanceled, "canceled by request"
	default:
		state, msg, attrs = JobFailed, err.Error(), []any{"error", err}
	}
	b.endLocked(state, msg)
	l.persistLocked(t)
	b.mu.Unlock()
	l.settle(t, state, attrs...)
	return state
}

// settle counts and logs t's arrival in state.
func (l *ledger[T]) settle(t T, state JobState, attrs ...any) {
	l.countTerminal(state)
	lg := l.logger(t)
	if state == JobFailed {
		lg.Warn(l.name+" failed", attrs...)
		return
	}
	lg.Info(l.name+" "+string(state), attrs...)
}

// countTerminal increments the lifecycle counter of a terminal state.
func (l *ledger[T]) countTerminal(state JobState) {
	switch state {
	case JobDone:
		l.done.Inc()
	case JobFailed:
		l.failed.Inc()
	case JobCanceled:
		l.canceled.Inc()
	}
}

// checkpoint applies fn to t under its mu, wakes its watchers, and writes
// its record.
func (l *ledger[T]) checkpoint(t T, fn func()) {
	b := t.base()
	b.mu.Lock()
	defer b.mu.Unlock()
	fn()
	b.touch()
	l.persistLocked(t)
}

// persistLocked writes t's record atomically. Callers hold the task's mu,
// so records land in the order of the states they carry, and no reader
// sees a state before its record is on disk. Failures are logged, not
// fatal (the in-memory task stays authoritative).
func (l *ledger[T]) persistLocked(t T) {
	id := t.base().ID
	data, err := json.MarshalIndent(t.recordLocked(), "", "  ")
	if err != nil {
		l.log.Warn(l.name+" record marshal failed", l.name, id, "err", err)
		return
	}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		l.log.Warn(l.name+" record dir create failed", l.name, id, "err", err)
		return
	}
	if err := writeAtomic(filepath.Join(l.dir, id+".json"), append(data, '\n')); err != nil {
		l.log.Warn(l.name+" record persist failed", l.name, id, "err", err)
	}
}

// load restores the records earlier incarnations wrote, so outcomes
// survive daemon restarts. A record left in a non-terminal state belongs
// to a task the previous incarnation never finished: it is surfaced as
// failed, keeping whatever it checkpointed. Restored terminal outcomes
// count toward the lifecycle counters, so a restart does not zero them
// under a ledger that still lists the tasks.
func (l *ledger[T]) load() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return // no records yet
	}
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(l.dir, e.Name()))
		if err != nil {
			l.log.Warn("skipping unreadable "+l.name+" record", "file", e.Name(), "err", err)
			continue
		}
		t, err := l.restore(id, data)
		if err != nil {
			l.log.Warn("skipping bad "+l.name+" record", "file", e.Name(), "err", err)
			continue
		}
		b := t.base()
		if !b.state.terminal() {
			l.checkpoint(t, func() {
				b.state = JobFailed
				b.err = "daemon restarted before the " + l.name + " finished"
				if b.finished.IsZero() {
					b.finished = time.Now()
				}
			})
		}
		l.countTerminal(b.state)
		l.byID[id] = t
		l.order = append(l.order, t)
	}
	if len(l.order) == 0 {
		return
	}
	// Listings are submission-ordered; restored records sort by their
	// original creation time.
	sort.Slice(l.order, func(i, k int) bool {
		a, b := l.order[i].base(), l.order[k].base()
		if a.created.Equal(b.created) {
			return a.ID < b.ID
		}
		return a.created.Before(b.created)
	})
	l.mu.Lock()
	l.pruneLocked()
	l.mu.Unlock()
	l.log.Info(l.name+" records loaded", "count", len(l.order), "dir", l.dir)
}
