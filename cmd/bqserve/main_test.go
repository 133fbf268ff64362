package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBuildAndServeSmoke stands the server up over the small social
// dataset (one shard and three) and exercises every endpoint once.
func TestBuildAndServeSmoke(t *testing.T) {
	for _, shards := range []int{1, 3} {
		srv, info, err := buildServer(config{
			dataset: "social", scale: 1.0 / 32, shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(strings.ToLower(info), "social") {
			t.Errorf("info %q does not name the dataset", info)
		}
		hs := httptest.NewServer(srv.Handler())

		code, body := postJSON(t, hs.URL+"/query",
			`{"query": "select photo_id from in_album where album_id = ?", "args": [1]}`)
		if code != http.StatusOK {
			t.Fatalf("shards=%d /query: status %d: %s", shards, code, body)
		}
		var env struct {
			Epoch  string          `json:"epoch"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Epoch == "" {
			t.Fatalf("shards=%d /query response %s undecodable (%v)", shards, body, err)
		}

		code, body = postJSON(t, hs.URL+"/ingest",
			`{"ops": [{"op": "insert", "rel": "friends", "tuple": [1, 2]}]}`)
		if code != http.StatusOK {
			t.Fatalf("shards=%d /ingest: status %d: %s", shards, code, body)
		}

		for _, path := range []string{"/stats", "/healthz"} {
			resp, err := http.Get(hs.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("shards=%d %s: status %d", shards, path, resp.StatusCode)
			}
		}
		hs.Close()
	}
}

// TestSlowLogTracesResolveEndToEnd is the acceptance path for the
// retention tier as assembled by the real buildServer: a threshold-0
// slow log plus an armed trace recorder means every slow-log line
// written while serving must resolve through GET /debug/traces/{id},
// and /debug/timeseries must serve sampled history.
func TestSlowLogTracesResolveEndToEnd(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "slow.jsonl")
	srv, _, err := buildServer(config{
		dataset: "social", scale: 1.0 / 32, shards: 1,
		metrics:        true,
		slowLog:        logPath,
		slowThreshold:  0, // every query is a slow-log candidate
		slowSample:     1,
		traceRetention: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for i := 0; i < 12; i++ {
		code, body := postJSON(t, hs.URL+"/query",
			`{"query": "select photo_id from in_album where album_id = ?", "args": [1]}`)
		if code != http.StatusOK {
			t.Fatalf("/query %d: status %d: %s", i, code, body)
		}
	}

	f, err := os.Open(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ids []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var entry struct {
			TraceID string `json:"trace_id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &entry); err != nil {
			t.Fatalf("slow-log line undecodable: %v: %s", err, sc.Text())
		}
		if entry.TraceID == "" {
			t.Fatalf("slow-log line missing trace_id: %s", sc.Text())
		}
		ids = append(ids, entry.TraceID)
	}
	if len(ids) == 0 {
		t.Fatal("threshold-0 slow log wrote no entries")
	}
	for _, id := range ids {
		resp, err := http.Get(hs.URL + "/debug/traces/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var rt struct {
			TraceID string          `json:"trace_id"`
			Reasons []string        `json:"reasons"`
			Spans   json.RawMessage `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rt)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("slow-logged trace %s did not resolve: status %d", id, resp.StatusCode)
		}
		if err != nil || rt.TraceID != id || len(rt.Spans) == 0 {
			t.Fatalf("trace %s: bad payload (err %v, id %q, %d span bytes)", id, err, rt.TraceID, len(rt.Spans))
		}
	}

	resp, err := http.Get(hs.URL + "/debug/timeseries?last=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/timeseries: status %d", resp.StatusCode)
	}
	var doc struct {
		IntervalMS int64 `json:"interval_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.IntervalMS <= 0 {
		t.Fatalf("/debug/timeseries payload bad (err %v, interval %d)", err, doc.IntervalMS)
	}
}

// TestDurableRestartCycle is the serving-layer acceptance path for the
// durable tier: seed a fresh -data-dir, ingest over HTTP, shut down
// gracefully, and restart — the write must be there and the restart must
// have replayed zero WAL records (Shutdown checkpointed). A -shards
// value that disagrees with the directory is rejected.
func TestDurableRestartCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	// shards stays at its flag default (1) with shardsSet false: on
	// restart the manifest's count must win.
	base := config{dataset: "social", scale: 1.0 / 32, shards: 1, dataDir: dir}

	first := base
	first.shards, first.shardsSet = 2, true
	srv, _, err := buildServer(first)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	code, body := postJSON(t, hs.URL+"/ingest",
		`{"ops": [{"op": "insert", "rel": "friends", "tuple": [777777, 888888]}]}`)
	if code != http.StatusOK {
		t.Fatalf("/ingest: status %d: %s", code, body)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	hs.Close()

	wrong := base
	wrong.shards, wrong.shardsSet = 3, true
	if _, _, err := buildServer(wrong); err == nil {
		t.Fatal("restart with mismatched -shards was accepted")
	}

	srv2, info, err := buildServer(base) // -shards not set: manifest wins
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !strings.Contains(info, "P=2") {
		t.Errorf("restart info %q does not report the manifest's shard count", info)
	}
	if strings.Contains(info, "replayed") && !strings.Contains(info, "0 WAL ops replayed") {
		t.Errorf("restart info %q reports WAL replay after a clean shutdown", info)
	}
	hs2 := httptest.NewServer(srv2.Handler())
	code, body = postJSON(t, hs2.URL+"/query",
		`{"query": "select friend_id from friends where user_id = ?", "args": [777777]}`)
	if code != http.StatusOK {
		t.Fatalf("/query after restart: status %d: %s", code, body)
	}
	if !strings.Contains(body, "888888") {
		t.Fatalf("ingested tuple lost across restart: %s", body)
	}
	if err := srv2.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	hs2.Close()
}

func TestConfigValidation(t *testing.T) {
	bad := []config{
		{dataset: "social", scale: 0},
		{dataset: "social", scale: 1, shards: 0},
		{dataset: "nope", scale: 1, shards: 1},
		{dataset: "social", scale: 1, shards: 1, slowLogMaxBytes: -1},
		{dataset: "social", scale: 1, shards: 1, traceRetention: -1},
		{dataset: "social", scale: 1, shards: 1, sloLatency: -1},
		{dataset: "social", scale: 1, shards: 1, sloLatency: 1, sloLatencyBudget: 2},
	}
	for _, c := range bad {
		if _, _, err := buildServer(c); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}
