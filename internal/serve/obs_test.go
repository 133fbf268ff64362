package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/obs"
)

// newObsServer is newTestServer with a full observer wired through every
// layer — registry into the engine, the store and the server, plus an
// optional slow-query log.
func newObsServer(t testing.TB, slow *obs.SlowLog) (*obs.Registry, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	ls := serveScene(t)
	ls.Instrument(reg)
	eng, err := engine.NewLive(ls, engine.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Obs: &obs.Observer{Metrics: reg, SlowLog: slow},
		Ingest: func(ops []live.Op) error {
			_, err := ls.Apply(ops)
			return err
		},
		Metrics: ls,
	}
	srv, err := New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return reg, hs
}

// TestMetricsUnderMixedLoad drives every endpoint — queries (cold,
// cached, debug, paged), ingest, stats, healthz — and asserts the scrape
// exposes series from all six instrumented subsystems with consistent
// values.
func TestMetricsUnderMixedLoad(t *testing.T) {
	_, hs := newObsServer(t, nil)
	base := hs.URL

	q := `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`
	for i := 0; i < 3; i++ { // cold then cached
		if code, _ := post(t, base+"/query", q); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}
	post(t, base+"/query", `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "debug": true}`)
	post(t, base+"/query", `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 1}`)
	post(t, base+"/ingest", `{"ops": [{"op": "insert", "rel": "friends", "tuple": ["u0", "f1"]}]}`)
	post(t, base+"/query", `{"query": "select nope from nowhere"}`) // client_error outcome
	if _, err := http.Get(base + "/healthz"); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(base + "/stats"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()

	// One probe per subsystem: serve, engine/plan, exec, ingest/live,
	// epoch freshness, result cache, cursors.
	for _, want := range []string{
		`bcq_http_queries_total 6`,
		`bcq_http_request_seconds_count{endpoint="query",outcome="ok"}`,
		`bcq_http_request_seconds_count{endpoint="query",outcome="client_error"}`,
		"# TYPE bcq_queue_wait_seconds histogram",
		"bcq_plan_prepares_total",
		"bcq_plan_cache_hits_total",
		"# TYPE bcq_prepare_seconds histogram",
		"bcq_exec_runs_total",
		"bcq_exec_probes_total",
		"# TYPE bcq_exec_wave_seconds histogram",
		"bcq_ingest_batches_total 1",
		"bcq_ingest_ops_applied_total 1",
		"# TYPE bcq_ingest_apply_seconds histogram",
		"# TYPE bcq_epoch gauge",
		"bcq_epoch_age_seconds",
		"bcq_store_tuples",
		"bcq_result_cache_hits_total",
		"bcq_result_cache_misses_total",
		"bcq_result_cache_invalidated_total",
		"bcq_cursors_open",
		"bcq_inflight_requests",
		"bcq_worker_saturation",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// The scrape is itself a GET-only endpoint.
	if code, _ := post(t, base+"/metrics", "{}"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status = %d, want 405", code)
	}
}

// TestHealthzReadiness: the health endpoint reports readiness facts —
// epoch key, shard count, worker-pool saturation — without pinning a
// view.
func TestHealthzReadiness(t *testing.T) {
	_, hs := newObsServer(t, nil)
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		OK         bool    `json:"ok"`
		Epoch      string  `json:"epoch"`
		Shards     int     `json:"shards"`
		Workers    int     `json:"workers"`
		MaxQueue   int     `json:"max_queue"`
		InFlight   int     `json:"in_flight"`
		Saturation float64 `json:"saturation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.OK || hz.Epoch == "" || hz.Shards != 1 || hz.Workers < 1 {
		t.Errorf("readiness payload incomplete: %+v", hz)
	}
	if hz.Saturation < 0 || hz.Saturation > 1 {
		t.Errorf("saturation %g out of [0, 1]", hz.Saturation)
	}
}

// TestQueryDebugTrace: debug requests return the trace ID (echoed in the
// X-BQ-Trace-Id header), the explain text and the span tree; a
// client-supplied trace ID is adopted.
func TestQueryDebugTrace(t *testing.T) {
	_, hs := newObsServer(t, nil)
	req, _ := http.NewRequest(http.MethodPost, hs.URL+"/query",
		strings.NewReader(`{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "debug": true}`))
	req.Header.Set("X-BQ-Trace-Id", "test-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-BQ-Trace-Id"); got != "test-trace-42" {
		t.Errorf("response trace header = %q, want the adopted ID", got)
	}
	var env struct {
		TraceID string `json:"trace_id"`
		Debug   *struct {
			Explain string          `json:"explain"`
			Spans   json.RawMessage `json:"spans"`
		} `json:"debug"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.TraceID != "test-trace-42" {
		t.Errorf("trace_id = %q", env.TraceID)
	}
	if env.Debug == nil || !strings.Contains(env.Debug.Explain, "plan for") {
		t.Fatalf("debug payload missing or explain empty: %+v", env.Debug)
	}
	var spans struct {
		TraceID string       `json:"trace_id"`
		Root    obs.SpanJSON `json:"root"`
	}
	if err := json.Unmarshal(env.Debug.Spans, &spans); err != nil {
		t.Fatalf("debug.spans not valid JSON: %v", err)
	}
	if spans.Root.Name != "query" || len(spans.Root.Children) == 0 {
		t.Errorf("span tree root = %+v", spans.Root)
	}
}

// TestSlowQueryLog: with the threshold at zero every query is slow. The
// entry must be one JSON line whose per-step actuals agree with the
// response's stats and whose span tree names every plan step.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	slow := obs.NewSlowLog(&buf, 0, 1)
	_, hs := newObsServer(t, slow)

	code, raw := post(t, hs.URL+"/query",
		`{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`)
	if code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, raw)
	}
	var env struct {
		Result struct {
			Tuples [][]any `json:"tuples"`
			Stats  struct {
				TuplesFetched int64 `json:"tuples_fetched"`
			} `json:"stats"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if slow.Written() != 1 {
		t.Fatalf("Written = %d, want 1", slow.Written())
	}

	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	if !sc.Scan() {
		t.Fatal("no slow-log line")
	}
	var e obs.SlowEntry
	if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
		t.Fatalf("slow-log line is not valid JSON: %v", err)
	}
	if e.Endpoint != "query" || e.TraceID == "" || e.Fingerprint == "" {
		t.Errorf("entry incomplete: %+v", e)
	}
	if e.Answers != len(env.Result.Tuples) {
		t.Errorf("answers = %d, response had %d", e.Answers, len(env.Result.Tuples))
	}
	if e.Fetched != env.Result.Stats.TuplesFetched {
		t.Errorf("tuples_fetched = %d, response had %d", e.Fetched, env.Result.Stats.TuplesFetched)
	}
	if len(e.Steps) == 0 {
		t.Fatal("entry has no plan steps")
	}
	var stepFetched int64
	for _, st := range e.Steps {
		stepFetched += st.Fetched
	}
	if stepFetched != e.Fetched {
		t.Errorf("per-step fetched sums to %d, entry total %d", stepFetched, e.Fetched)
	}
	// Every fetch step's name must appear as a span in the entry's tree —
	// the cross-reference the names are designed for.
	var spans struct {
		Root obs.SpanJSON `json:"root"`
	}
	if err := json.Unmarshal(e.Spans, &spans); err != nil {
		t.Fatalf("entry spans not valid JSON: %v", err)
	}
	names := map[string]obs.SpanJSON{}
	var walk func(obs.SpanJSON)
	walk = func(s obs.SpanJSON) {
		names[s.Name] = s
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(spans.Root)
	for _, st := range e.Steps {
		if !strings.HasPrefix(st.Step, "fetch ") {
			continue
		}
		sp, ok := names[st.Step]
		if !ok {
			t.Errorf("step %q has no matching span; spans: %v", st.Step, keysOf(names))
			continue
		}
		if got := sp.Tags["fetched"]; got != fmt.Sprint(st.Fetched) {
			t.Errorf("span %q fetched tag = %q, step actual %d", st.Step, got, st.Fetched)
		}
	}
}

// TestSlowQueryLogPaged: the paged path accounts its pages too — the
// closing page writes the entry.
func TestSlowQueryLogPaged(t *testing.T) {
	var buf syncBuffer
	slow := obs.NewSlowLog(&buf, 0, 1)
	_, hs := newObsServer(t, slow)

	code, raw := post(t, hs.URL+"/query",
		`{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 100}`)
	if code != http.StatusOK {
		t.Fatalf("paged query status %d: %s", code, raw)
	}
	if slow.Written() == 0 {
		t.Fatal("paged query wrote no slow-log entry")
	}
	var e obs.SlowEntry
	if err := json.Unmarshal([]byte(strings.SplitN(buf.String(), "\n", 2)[0]), &e); err != nil {
		t.Fatalf("slow-log line invalid: %v", err)
	}
	if e.TraceID == "" {
		t.Error("paged entry has no trace ID")
	}
	// The page body carries the same trace ID in its trailer.
	if !strings.Contains(string(raw), e.TraceID) {
		t.Errorf("page body does not echo trace %s: %s", e.TraceID, raw)
	}
}

// TestMetricsScrapeConcurrent scrapes /metrics while queries and ingest
// churn — the -race CI run is the point; any torn read or unlocked map
// access shows up there.
func TestMetricsScrapeConcurrent(t *testing.T) {
	_, hs := newObsServer(t, nil)
	base := hs.URL
	var wg sync.WaitGroup
	stop := time.Now().Add(300 * time.Millisecond)
	for w := 0; w < 2; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				post(t, base+"/query", `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`)
			}
		}()
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				post(t, base+"/ingest", `{"ops": [{"op": "insert", "rel": "friends", "tuple": ["u0", "f1"]}]}`)
			}
		}()
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

// syncBuffer is a mutex-guarded bytes.Buffer (the slow log writes from
// request goroutines).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func keysOf(m map[string]obs.SpanJSON) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
