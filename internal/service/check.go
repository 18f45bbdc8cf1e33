package service

import (
	"encoding/json"
	"net/http"
	"runtime"
)

// Server-side bounds on batch membership checks: the endpoint is designed
// to be the cheap high-QPS one (no oracle, no subprocess — just the
// compiled recognition ladder), so the caps bound per-request work, not
// concurrency.
const (
	// maxCheckInputs bounds inputs per POST /v1/grammars/{id}/check.
	maxCheckInputs = 1000
	// maxCheckBytes bounds the summed length of those inputs.
	maxCheckBytes = 1 << 20
)

// checkRequest is the body of POST /v1/grammars/{id}/check.
type checkRequest struct {
	Inputs []string `json:"inputs"`
}

// checkResponse answers a batch membership check: verdicts is
// index-aligned with the request's inputs, accepted counts the true ones.
type checkResponse struct {
	GrammarID string `json:"grammar_id"`
	Count     int    `json:"count"`
	Accepted  int    `json:"accepted"`
	Verdicts  []bool `json:"verdicts"`
}

// handleCheck serves POST /v1/grammars/{id}/check: batch membership of the
// posted inputs against the stored grammar's compiled recognition ladder
// (cfg.Compiled.AcceptsAll). No oracle is consulted — verdicts are the
// grammar's own language, served from the store's hot cache, which is what
// makes this the endpoint of choice for high-QPS load.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req checkRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad check request: %v", err)
		return
	}
	if len(req.Inputs) == 0 {
		writeError(w, http.StatusBadRequest, "no inputs")
		return
	}
	if len(req.Inputs) > maxCheckInputs {
		writeError(w, http.StatusBadRequest, "%d inputs exceeds limit %d", len(req.Inputs), maxCheckInputs)
		return
	}
	total := 0
	for _, in := range req.Inputs {
		total += len(in)
	}
	if total > maxCheckBytes {
		writeError(w, http.StatusBadRequest, "inputs total %d bytes exceeds limit %d", total, maxCheckBytes)
		return
	}
	compiled, err := s.store.Compiled(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	// Fan membership out across cores for large batches; AcceptsAll runs
	// sequentially below 2 workers, reusing one scratch set either way.
	workers := min(runtime.GOMAXPROCS(0), len(req.Inputs)/16)
	verdicts := compiled.AcceptsAll(req.Inputs, workers)
	accepted := 0
	for _, v := range verdicts {
		if v {
			accepted++
		}
	}
	s.met.checkInputs.Add(uint64(len(verdicts)))
	writeJSON(w, http.StatusOK, checkResponse{
		GrammarID: id,
		Count:     len(verdicts),
		Accepted:  accepted,
		Verdicts:  verdicts,
	})
}
