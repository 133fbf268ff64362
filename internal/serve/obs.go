package serve

import (
	"fmt"
	"net/http"
	"time"

	"bcq/internal/engine"
	"bcq/internal/exec"
	"bcq/internal/obs"
	"bcq/internal/plan"
)

// endpoint/outcome label values of bcq_http_request_seconds. Outcomes
// classify the response status: ok (<400), client_error (4xx), overload
// (503), timeout (504), error (5xx).
var (
	httpEndpoints = []string{"query", "prepare", "ingest", "stats", "healthz", "metrics", "debug"}
	httpOutcomes  = []string{"ok", "client_error", "overload", "timeout", "error"}
)

// sloEndpoints are the endpoints whose requests feed burn-rate
// detection: the work endpoints. Probes and scrapes (/stats, /healthz,
// /metrics, /debug) never burn the budget — a dashboard refresh is not
// user traffic.
var sloEndpoints = map[string]bool{"query": true, "prepare": true, "ingest": true}

// instrument registers the server's metrics on the observer's registry
// and pre-resolves the per-(endpoint, outcome) latency histograms, so a
// request's one observation is a map read, never a registry lock. No-op
// without a registry.
func (s *Server) instrument() {
	reg := s.obs.Reg()
	if reg == nil {
		return
	}
	s.queueSec = reg.Histogram("bcq_queue_wait_seconds",
		"Time a request waited for a worker slot.", obs.LatencyBuckets)
	const reqName = "bcq_http_request_seconds"
	const reqHelp = "HTTP request latency by endpoint and outcome."
	s.httpSec = make(map[string]*obs.Histogram, len(httpEndpoints)*len(httpOutcomes))
	for _, ep := range httpEndpoints {
		for _, oc := range httpOutcomes {
			s.httpSec[ep+"\x00"+oc] = reg.Histogram(reqName, reqHelp, obs.LatencyBuckets,
				obs.L("endpoint", ep), obs.L("outcome", oc))
		}
	}
	cf := func(name, help string, load func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(load()) })
	}
	cf("bcq_http_queries_total", "POST /query requests received.", s.queries.Load)
	cf("bcq_http_ingests_total", "POST /ingest requests received.", s.ingests.Load)
	cf("bcq_http_overloads_total", "Requests rejected 503 (queue full).", s.overloads.Load)
	cf("bcq_http_timeouts_total", "Requests that hit their deadline (queued or executing).", s.timeouts.Load)
	if s.cache != nil {
		cf("bcq_result_cache_hits_total", "Queries answered from the result cache.", s.cache.hits.Load)
		cf("bcq_result_cache_misses_total", "Cacheable queries that had to execute.", s.cache.misses.Load)
		cf("bcq_result_cache_invalidated_total", "Misses that found a cached answer a write had since touched (part of the misses).", s.cache.invalidated.Load)
		reg.GaugeFunc("bcq_result_cache_entries", "Result-cache entries resident.",
			func() float64 { return float64(s.cache.stats().Entries) })
	}
	reg.GaugeFunc("bcq_inflight_requests", "Requests holding or awaiting a worker slot.",
		func() float64 { return float64(s.waiting.Load()) })
	reg.GaugeFunc("bcq_worker_saturation",
		"In-flight requests over the admission bound (workers + queue); 1.0 means 503s.",
		func() float64 { return float64(s.waiting.Load()) / float64(s.workers+s.maxQueue) })
	reg.GaugeFunc("bcq_cursors_open", "Pagination cursors currently registered (each pins a snapshot).",
		func() float64 { return float64(s.cursors.open()) })
	cf("bcq_cursors_expired_total", "Cursors dropped by TTL.", s.cursors.expired.Load)
	cf("bcq_cursors_evicted_total", "Cursors evicted at capacity.", s.cursors.evicted.Load)
	if sl := s.obs.Slow(); sl != nil {
		cf("bcq_slow_queries_logged_total", "Slow-query log entries written.", sl.Written)
		cf("bcq_slow_log_rotations_total", "Slow-query log file rotations (MaxBytes reached).", sl.Rotations)
	}
	s.obs.TraceRec().Instrument(reg)
	s.obs.SLOMonitor().Instrument(reg)
}

// statusRecorder captures the response status for outcome labeling. It
// implements http.Flusher unconditionally (delegating when the underlying
// writer supports it) because the paged /query path streams chunks.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// outcomeOf maps a response status to its outcome label.
func outcomeOf(status int) string {
	switch {
	case status < 400:
		return "ok"
	case status == http.StatusServiceUnavailable:
		return "overload"
	case status == http.StatusGatewayTimeout:
		return "timeout"
	case status < 500:
		return "client_error"
	default:
		return "error"
	}
}

// instrumented wraps one endpoint's handler with request-latency
// recording and, for the work endpoints, SLO burn accounting (a 5xx
// burns the error budget; anything else burns the latency budget only
// if slow). With both disabled it is the handler itself — zero added
// allocations on the disabled path.
func (s *Server) instrumented(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	slo := s.obs.SLOMonitor()
	if s.httpSec == nil && slo == nil {
		return h
	}
	sloHere := slo != nil && sloEndpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		d := time.Since(start)
		if s.httpSec != nil {
			s.httpSec[endpoint+"\x00"+outcomeOf(rec.status)].Observe(d.Seconds())
		}
		if sloHere {
			slo.Record(d, rec.status >= 500)
		}
	}
}

// traceHeader is the request header X-BQ-Trace-Id in the canonical form
// net/http files received headers under. Indexing the header map with it
// skips the canonicalisation Header.Get would redo, and allocate for, on
// every request.
const traceHeader = "X-Bq-Trace-Id"

// traceFor decides whether a query request runs traced: the client sent
// X-BQ-Trace-Id (adopted as the trace ID), asked for debug output, the
// slow-query log is armed, or a tail-sampling trace recorder is — spans
// must exist before the duration reveals whether the query was slow or
// an outlier (head-trace everything, decide retention at the end).
// Returns nil otherwise (untraced execution costs one nil check per
// site).
func (s *Server) traceFor(r *http.Request, debug bool) *obs.Trace {
	var id string
	if v := r.Header[traceHeader]; len(v) > 0 {
		id = v[0]
	}
	if id == "" && !debug && s.obs.Slow() == nil && s.obs.TraceRec() == nil {
		return nil
	}
	return obs.NewTrace(id, "query")
}

// maybeSlowLog records one slow-query entry when the duration qualifies
// and the sampler picks it: the fingerprint, the plan with estimate
// versus actual per step, and the request's span tree as one JSON line.
// It then offers the trace to the tail-sampling recorder — forced when
// the entry was logged, so every slow-log trace ID resolves via
// /debug/traces/{id} (exemplar linking); otherwise retention falls to
// the recorder's own slow/outlier criteria. outcome "" means ok. The
// duration since start is read only when the slow log or the recorder
// will use it.
func (s *Server) maybeSlowLog(endpoint string, p *engine.Prepared, res *exec.Result, tr *obs.Trace, start time.Time, answers int, outcome string) {
	sl, rec := s.obs.Slow(), s.obs.TraceRec()
	if sl == nil && (rec == nil || tr == nil) {
		return
	}
	if outcome == "" {
		outcome = "ok"
	}
	d := time.Since(start)
	logged := sl != nil && sl.ShouldLog(d)
	if logged {
		sl.Record(obs.SlowEntry{
			TraceID:     tr.ID(),
			Endpoint:    endpoint,
			Fingerprint: p.Fingerprint(),
			DurationMS:  float64(d) / float64(time.Millisecond),
			Outcome:     outcome,
			Answers:     answers,
			Fetched:     res.Stats.TuplesFetched,
			DQSize:      res.DQSize,
			Limit:       res.Limit,
			EstFetch:    p.EstFetch(),
			Steps:       slowSteps(p.Plan(), res),
			Plan:        p.Explain(res),
			Spans:       tr.JSON(),
		})
	}
	rec.Consider(tr, obs.TraceMeta{
		Endpoint:    endpoint,
		Fingerprint: p.Fingerprint(),
		Duration:    d,
		Outcome:     outcome,
		Err:         outcome == "error",
		Force:       logged,
	})
}

// considerError finishes a failed request's trace and offers it to the
// recorder — errored requests always qualify for retention, so the
// evidence of a failure survives the response.
func (s *Server) considerError(endpoint, fingerprint string, tr *obs.Trace, start time.Time) {
	if tr == nil {
		return
	}
	tr.Finish()
	if rec := s.obs.TraceRec(); rec != nil {
		rec.Consider(tr, obs.TraceMeta{
			Endpoint:    endpoint,
			Fingerprint: fingerprint,
			Duration:    time.Since(start),
			Outcome:     "error",
			Err:         true,
		})
	}
}

// timesRequests reports whether anything records a /query's duration:
// the slow-query log or the trace recorder. Only then does a request read
// the clock on arrival.
func (s *Server) timesRequests() bool {
	return s.obs.Slow() != nil || s.obs.TraceRec() != nil
}

// slowSteps renders the executed plan's per-operation accounting. Step
// names match the executor's span names exactly, so a slow-log entry's
// steps and its span tree cross-reference by name.
func slowSteps(pl *plan.Plan, res *exec.Result) []obs.SlowStep {
	var out []obs.SlowStep
	for i, st := range pl.Steps {
		step := obs.SlowStep{
			Step:       fmt.Sprintf("fetch T%d: %s via %s", i+1, pl.Query.Atoms[st.Atom].Alias, st.AC),
			EstLookups: st.EstLookups,
			EstFetch:   st.EstFetch,
		}
		if i < len(res.StepStats) {
			a := res.StepStats[i]
			step.Lookups, step.Fetched, step.Skipped = a.Lookups, a.Fetched, a.Skipped
		}
		out = append(out, step)
	}
	for i, vs := range pl.Verifies {
		step := obs.SlowStep{
			Step:       fmt.Sprintf("verify %s", pl.Query.Atoms[vs.Atom].Alias),
			EstLookups: vs.EstLookups,
			EstFetch:   vs.EstFetch,
		}
		if i < len(res.VerifyStats) {
			a := res.VerifyStats[i]
			step.Lookups, step.Fetched, step.Skipped = a.Lookups, a.Fetched, a.Skipped
		}
		out = append(out, step)
	}
	return out
}
