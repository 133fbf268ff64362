package serve

import (
	"net/http"
	"strconv"
	"strings"

	"bcq/internal/obs"
)

// handleDebugTimeseries answers GET /debug/timeseries: the sampler's
// retained metric history as JSON. ?series=PREFIX filters by metric-name
// prefix; ?last=N trims each series to its newest N points (both
// optional). Registered only when the observer carries a sampler.
func (s *Server) handleDebugTimeseries(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	last := 0
	if v := r.URL.Query().Get("last"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			apiError(w, http.StatusBadRequest, "last %q: must be a non-negative integer", v)
			return
		}
		last = n
	}
	writeHeader(w, http.StatusOK)
	_, _ = w.Write(s.obs.Series().JSON(r.URL.Query().Get("series"), last))
	_, _ = w.Write([]byte("\n"))
}

// handleDebugTraces answers GET /debug/traces: summaries of the traces
// the tail-sampling recorder retained (span payloads omitted — resolve
// an individual trace via /debug/traces/{id}), most recent first.
// ?limit=N caps the listing (default 50).
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			apiError(w, http.StatusBadRequest, "limit %q: must be a non-negative integer", v)
			return
		}
		limit = n
	}
	rec := s.obs.TraceRec()
	traces := rec.List(limit)
	if traces == nil {
		traces = []obs.RetainedTrace{}
	}
	writeJSON(w, http.StatusOK, struct {
		Traces     []obs.RetainedTrace `json:"traces"`
		Resident   int                 `json:"resident"`
		Capacity   int                 `json:"capacity"`
		RollingP99 float64             `json:"rolling_p99_ms"`
	}{
		Traces:     traces,
		Resident:   rec.Resident(),
		Capacity:   rec.Capacity(),
		RollingP99: float64(rec.RollingP99().Microseconds()) / 1e3,
	})
}

// handleDebugTraceByID answers GET /debug/traces/{id}: the complete
// retained trace — metadata, retention reasons, and full span tree. 404
// means the ID was never retained or its ring slot has been recycled.
func (s *Server) handleDebugTraceByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, traceByIDPrefix)
	if id == "" || strings.Contains(id, "/") {
		apiError(w, http.StatusBadRequest, "trace ID required: /debug/traces/{id}")
		return
	}
	rt := s.obs.TraceRec().Get(id)
	if rt == nil {
		apiError(w, http.StatusNotFound, "trace %q not retained (never qualified, or evicted by ring wrap)", id)
		return
	}
	writeJSON(w, http.StatusOK, rt)
}
