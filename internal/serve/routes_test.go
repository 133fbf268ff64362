package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bcq/internal/obs"
)

// routedTo sends a GET for path to h and reports the status, and whether
// the request reached an endpoint's handler rather than the router's own
// 404 (http.NotFound's plain-text body; every handler answers JSON).
func routedTo(h http.Handler, path string) (int, bool) {
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.URL.Path = path
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	notFound := w.Code == http.StatusNotFound && strings.HasPrefix(w.Body.String(), "404 page not found")
	return w.Code, !notFound
}

// TestRouteTable pins what Handler answers: every endpoint at its exact
// path, trace lookup by ID under the /debug/traces/ prefix, and 404 —
// never a redirect — for any other path, an unclean or trailing-slash
// spelling of an endpoint's included, and for the observability
// endpoints whose option is off.
func TestRouteTable(t *testing.T) {
	reg := obs.NewRegistry()
	full := &obs.Observer{
		Metrics:    reg,
		TimeSeries: obs.NewTimeSeries(reg, obs.TimeSeriesOptions{Interval: time.Second, Window: 4}),
		Traces:     obs.NewTraceRecorder(obs.TraceRecorderOptions{Capacity: 4}),
	}
	_, on := retentionScene(t, full, Options{})
	_, off := retentionScene(t, &obs.Observer{}, Options{})

	always := []string{"/query", "/prepare", "/ingest", "/stats", "/healthz"}
	optional := []string{"/metrics", "/debug/timeseries", "/debug/traces", "/debug/traces/no-such-id"}
	for _, path := range append(always, optional...) {
		if code, routed := routedTo(on.Handler(), path); !routed {
			t.Errorf("%s: status %d from the router, want its endpoint", path, code)
		}
	}
	for _, path := range always {
		if code, routed := routedTo(off.Handler(), path); !routed {
			t.Errorf("%s with observability off: status %d from the router, want its endpoint", path, code)
		}
	}
	for _, path := range optional {
		if code, routed := routedTo(off.Handler(), path); routed || code != http.StatusNotFound {
			t.Errorf("%s with its option off: status %d (routed %v), want the router's 404", path, code, routed)
		}
	}
	for _, path := range []string{"/", "/nope", "/query/", "//query", "/query/../query", "/./query", "/QUERY", "/debug", "/debug/"} {
		if code, routed := routedTo(on.Handler(), path); routed || code != http.StatusNotFound {
			t.Errorf("%s: status %d (routed %v), want the router's 404", path, code, routed)
		}
	}
}
