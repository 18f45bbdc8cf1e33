package core

// Progress is one phase-level progress event of a learning run. The
// learner emits a bounded stream of these through Options.Progress: one
// event per seed entering phase one, one per literal scanned by character
// generalization, one per phase-two candidate wave, and one terminal
// "done" event. Long-lived callers (the glade-serve job manager) relay the
// stream to clients polling or watching a job.
type Progress struct {
	// Phase names the learner's current activity: "seeds" (validating the
	// seed inputs), "phase1", "chargen", "phase2", or "done".
	Phase string `json:"phase"`
	// Seed is the 1-based index of the seed being generalized (phase1 and
	// chargen events); Seeds is the total seed count.
	Seed  int `json:"seed,omitempty"`
	Seeds int `json:"seeds,omitempty"`
	// Lit/Lits report character-generalization progress within a seed: the
	// 1-based literal being scanned and the literal count.
	Lit  int `json:"lit,omitempty"`
	Lits int `json:"lits,omitempty"`
	// Pairs/TotalPairs report phase-two progress: merge pairs examined so
	// far out of the total candidate pairs.
	Pairs      int `json:"pairs,omitempty"`
	TotalPairs int `json:"total_pairs,omitempty"`
	// Checks and Queries snapshot learner effort at the time of the event:
	// check strings evaluated and de-duplicated queries that reached the
	// underlying oracle.
	Checks  int `json:"checks"`
	Queries int `json:"queries"`
}

// emit sends a progress event through Options.Progress, stamping it with
// the current effort counters. The callback runs synchronously on the
// learning goroutine between oracle waves, so it must return quickly;
// callers that relay events elsewhere should buffer rather than block.
func (l *learner) emit(p Progress) {
	if l.opts.Progress == nil {
		return
	}
	p.Checks = l.stats.Checks
	p.Queries = l.stats.OracleQueries
	l.opts.Progress(p)
}
