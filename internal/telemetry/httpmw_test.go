package telemetry

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Table test: each status code the handler returns must be counted under
// the right status class with the right route label.
func TestHTTPMetricsStatusClasses(t *testing.T) {
	cases := []struct {
		route  string
		status int
		class  string
	}{
		{"GET /v1/jobs", http.StatusOK, "2xx"},
		{"GET /v1/jobs", http.StatusNoContent, "2xx"},
		{"GET /v1/grammars/{id}", http.StatusMovedPermanently, "3xx"},
		{"GET /v1/jobs/{id}", http.StatusNotFound, "4xx"},
		{"POST /v1/jobs", http.StatusTooManyRequests, "4xx"},
		{"POST /v1/campaigns", http.StatusInternalServerError, "5xx"},
	}

	reg := NewRegistry()
	for _, tc := range cases {
		status := tc.status
		route := tc.route
		inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Pattern = route // as http.ServeMux does for the pattern it matched
			w.WriteHeader(status)
		})
		h := HTTPMetrics(reg, inner)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/whatever", nil))
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.route, rec.Code, tc.status)
		}
	}

	wantCounts := map[string]uint64{
		`class="2xx",route="GET /v1/jobs"`:          2,
		`class="3xx",route="GET /v1/grammars/{id}"`: 1,
		`class="4xx",route="GET /v1/jobs/{id}"`:     1,
		`class="4xx",route="POST /v1/jobs"`:         1,
		`class="5xx",route="POST /v1/campaigns"`:    1,
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for labels, n := range wantCounts {
		want := fmt.Sprintf("glade_http_requests_total{%s} %d", labels, n)
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Each request also lands one latency observation per route.
	if !strings.Contains(out, `glade_http_request_seconds_count{route="GET /v1/jobs"} 2`) {
		t.Errorf("missing latency count for GET /v1/jobs in:\n%s", out)
	}
	// In-flight gauge returns to zero once all handlers finish.
	if !strings.Contains(out, "glade_http_in_flight 0") {
		t.Errorf("in-flight gauge not back to 0 in:\n%s", out)
	}
}

// A handler that never calls WriteHeader must be counted as 200/2xx, and an
// implicit write must not let a later WriteHeader overwrite the class. A
// request that matched no pattern is labeled "unmatched".
func TestHTTPMetricsImplicitStatus(t *testing.T) {
	reg := NewRegistry()
	h := HTTPMetrics(reg, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(b.String(), `glade_http_requests_total{class="2xx",route="unmatched"} 1`) {
		t.Errorf("implicit 200 not counted as 2xx/unmatched:\n%s", b.String())
	}
}

// The status wrapper must pass Flush through so streaming NDJSON endpoints
// keep flushing behind the middleware.
func TestStatusWriterFlushPassthrough(t *testing.T) {
	reg := NewRegistry()
	flushed := false
	h := HTTPMetrics(reg, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("middleware hides http.Flusher")
		}
		f.Flush()
		flushed = true
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stream", nil))
	if !flushed || !rec.Flushed {
		t.Errorf("flush not propagated: handler=%v recorder=%v", flushed, rec.Flushed)
	}
}
