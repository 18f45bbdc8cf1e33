package telemetry

import (
	"net/http"
	"strconv"
	"time"
)

// HTTPMetrics wraps next with per-endpoint instrumentation on reg:
//
//	glade_http_requests_total{route,class}  request count by status class
//	glade_http_request_seconds{route}       latency histogram per route
//	glade_http_in_flight                    requests currently being served
//
// The route label is the http.ServeMux pattern that served the request,
// which the mux stores in Request.Pattern while it serves; next is
// typically that mux. A request no pattern matched is labeled
// "unmatched", so label cardinality stays bounded no matter what paths
// clients probe.
func HTTPMetrics(reg *Registry, next http.Handler) http.Handler {
	inFlight := reg.Gauge("glade_http_in_flight",
		"HTTP requests currently being served.")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inFlight.Inc()
		defer inFlight.Dec()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		rt := r.Pattern
		if rt == "" {
			rt = "unmatched"
		}
		reg.Counter("glade_http_requests_total",
			"HTTP requests served, by route and status class.",
			L("route", rt), L("class", statusClass(sw.status))).Inc()
		reg.Histogram("glade_http_request_seconds",
			"HTTP request latency, by route.",
			L("route", rt)).Observe(elapsed)
	})
}

// statusClass buckets an HTTP status code as "1xx".."5xx".
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// statusWriter captures the response status code while delegating to the
// wrapped ResponseWriter. Flush is forwarded so streaming endpoints (job
// watch NDJSON) keep working behind the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

// WriteHeader records the first status code written and forwards it.
func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write marks the response started (an implicit 200 if WriteHeader was
// never called) and forwards the body bytes.
func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
