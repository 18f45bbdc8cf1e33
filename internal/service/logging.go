package service

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"glade/internal/telemetry"
)

// requestIDKey carries the per-request ID through request contexts.
type requestIDKey struct{}

// requestID returns the request ID stored in ctx, or "" outside a request.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// instrument wraps the public mux with the observability stack: a
// per-request ID (generated, stored in the context, echoed as
// X-Request-ID, and logged), then the telemetry HTTP middleware counting
// requests and timing them per route pattern. The route label is the
// pattern the mux matched while serving, so client-probed garbage paths
// all collapse into one "unmatched" label instead of minting metric
// children.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	h := telemetry.HTTPMetrics(s.reg, mux)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := newID()
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		w.Header().Set("X-Request-ID", id)
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(ctx))
		s.log.Debug("http request",
			"req", id, "method", r.Method, "path", r.URL.Path,
			"elapsed", time.Since(start).Round(time.Microsecond))
	})
}

// recoverPanics is the outermost middleware: a panicking handler must
// take down one request, not the daemon. The panic is counted, logged
// with its stack, and answered with a 500 (best-effort — if the handler
// already streamed a body, the status is on the wire and the connection
// just ends). http.ErrAbortHandler is re-raised: it is net/http's own
// control-flow signal for aborting a response, not a bug.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.met.httpPanics.Inc()
			s.log.Error("http handler panic",
				"panic", fmt.Sprint(p),
				"method", r.Method, "path", r.URL.Path,
				"stack", string(debug.Stack()))
			writeError(w, http.StatusInternalServerError, "internal error")
		}()
		next.ServeHTTP(w, r)
	})
}
