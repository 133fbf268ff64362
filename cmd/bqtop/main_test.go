package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// canned /debug/timeseries and /healthz payloads: one sampled window of
// query traffic plus a degraded latency SLO.
const (
	tsBody = `{
		"interval_ms": 2000, "window": 240, "samples": 3,
		"series_resident": 5, "series_dropped": 0,
		"series": [
			{"name": "bcq_epoch_age_seconds", "kind": "gauge",
			 "points": [{"ts_ms": 1000, "v": 42.5}]},
			{"name": "bcq_http_request_seconds", "kind": "histogram",
			 "labels": {"endpoint": "query", "outcome": "ok"},
			 "points": [{"ts_ms": 1000, "v": 12.5, "n": 25, "p50": 0.002, "p95": 0.004, "p99": 0.0075}]},
			{"name": "bcq_http_request_seconds", "kind": "histogram",
			 "labels": {"endpoint": "query", "outcome": "error"},
			 "points": [{"ts_ms": 1000, "v": 0.5, "n": 1, "p99": 0.1}]},
			{"name": "bcq_http_request_seconds", "kind": "histogram",
			 "labels": {"endpoint": "ingest", "outcome": "ok"},
			 "points": [{"ts_ms": 1000, "v": 3.0, "n": 6, "p99": 0.001}]},
			{"name": "bcq_queue_wait_seconds", "kind": "histogram",
			 "points": [{"ts_ms": 1000, "v": 15.5, "n": 31, "p99": 0.0125}]},
			{"name": "bcq_traces_resident", "kind": "gauge",
			 "points": [{"ts_ms": 1000, "v": 7}]},
			{"name": "bcq_trace_rolling_p99_seconds", "kind": "gauge",
			 "points": [{"ts_ms": 1000, "v": 0.009}]}
		]
	}`
	hzBody = `{
		"ok": true, "status": "degraded", "epoch": "e17", "shards": 4,
		"in_flight": 2, "saturation": 0.25,
		"slo": {
			"degraded": true,
			"reasons": ["latency burn 8.0x over threshold 2.0x"],
			"latency": {"short_burn": 8, "long_burn": 4, "short_bad": 12, "short_total": 150,
			            "long_bad": 30, "long_total": 900}
		}
	}`
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(tsBody))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(hzBody))
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return hs
}

// TestFetchFrame: the newest sample of each series reduces into one
// frame — per-endpoint QPS sums outcomes, ok-p99 converts to ms, error
// outcomes aggregate, and the scalar gauges land in their slots.
func TestFetchFrame(t *testing.T) {
	hs := testServer(t)
	fr, err := fetchFrame(hs.Client(), hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.rows) != 2 {
		t.Fatalf("rows = %+v, want ingest and query", fr.rows)
	}
	q := fr.rows[1] // sorted by endpoint: ingest, query
	if q.endpoint != "query" || q.qps != 13.0 || q.okP99MS != 7.5 || q.errQPS != 0.5 {
		t.Errorf("query row = %+v, want qps 13 (12.5 ok + 0.5 error), p99 7.5ms, err 0.5/s", q)
	}
	if fr.rows[0].endpoint != "ingest" || fr.rows[0].qps != 3.0 {
		t.Errorf("ingest row = %+v", fr.rows[0])
	}
	if fr.queueMS != 12.5 || fr.epochS != 42.5 || fr.traces != 7 || fr.p99MS != 9 {
		t.Errorf("scalars: queue %.2f epoch %.1f traces %.0f p99 %.2f",
			fr.queueMS, fr.epochS, fr.traces, fr.p99MS)
	}
	if !fr.health.SLO.Degraded || fr.health.Status != "degraded" {
		t.Errorf("health = %+v, want degraded verdict", fr.health)
	}
}

// TestRender: the dashboard names every surfaced fact.
func TestRender(t *testing.T) {
	hs := testServer(t)
	fr, err := fetchFrame(hs.Client(), hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	out := render(fr)
	for _, want := range []string{
		"status=degraded", "epoch=e17", "shards=4",
		"query", "ingest", "7.50ms", "12.50ms", "42.5s",
		"slo latency", "8.0x", "latency burn 8.0x over threshold",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRenderEmpty: no sampled traffic renders a hint, not a panic.
func TestRenderEmpty(t *testing.T) {
	out := render(frame{addr: "http://x", health: healthzPayload{OK: true}})
	if !strings.Contains(out, "no traffic sampled yet") {
		t.Errorf("empty frame missing hint:\n%s", out)
	}
	if !strings.Contains(out, "status=ok") {
		t.Errorf("empty frame missing default status:\n%s", out)
	}
}

// TestFetchFrameErrors: non-200 and unreachable servers surface errors.
func TestFetchFrameErrors(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no sampler", http.StatusNotFound)
	}))
	defer hs.Close()
	if _, err := fetchFrame(hs.Client(), hs.URL); err == nil {
		t.Error("404 timeseries did not error")
	}
	if _, err := fetchFrame(&http.Client{}, "http://127.0.0.1:1"); err == nil {
		t.Error("unreachable server did not error")
	}
}

// TestFetchFrameShardedEpochAge: a sharded server exports one epoch-age
// series per shard, and the frame shows the store's age, the youngest
// shard's — the time since any commit — whatever order the document
// lists the series in.
func TestFetchFrameShardedEpochAge(t *testing.T) {
	const body = `{
		"interval_ms": 2000, "window": 240, "samples": 1,
		"series": [
			{"name": "bcq_epoch_age_seconds", "kind": "gauge", "labels": {"shard": "0"},
			 "points": [{"ts_ms": 1000, "v": 0.25}]},
			{"name": "bcq_epoch_age_seconds", "kind": "gauge", "labels": {"shard": "1"},
			 "points": [{"ts_ms": 1000, "v": 90}]}
		]
	}`
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/timeseries", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(body))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok": true, "epoch": "shard:4,0", "shards": 2}`))
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	fr, err := fetchFrame(hs.Client(), hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	if fr.epochS != 0.25 {
		t.Errorf("epoch age %.2fs, want the youngest shard's 0.25s", fr.epochS)
	}
}
