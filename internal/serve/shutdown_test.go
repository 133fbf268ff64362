package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
)

// durableTestServer wires a durable one-shard store into a server with
// the CloseStore hook, the way cmd/bqserve does with -data-dir.
func durableTestServer(t *testing.T, dir string, opts Options) (*shard.Store, *Server, *httptest.Server) {
	t.Helper()
	cat, acc, err := schema.ParseDDL(serveDDL)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	if err := db.Insert("in_album", strT("p1", "a0")); err != nil {
		t.Fatal(err)
	}
	ss, err := shard.New(db, acc, shard.Options{Shards: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewSharded(ss, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Ingest = ss.Apply
	opts.Metrics = ss
	opts.CloseStore = ss.Close
	srv, err := New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return ss, srv, hs
}

// TestShutdownClosesStoreAndReplaysNothing is the graceful-shutdown
// contract: Shutdown drains, checkpoints and closes the WAL, so a
// reopen of the data directory replays zero records.
func TestShutdownClosesStoreAndReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	ss, srv, hs := durableTestServer(t, dir, Options{})

	code, _ := post(t, hs.URL+"/ingest",
		`{"ops": [{"op": "insert", "rel": "in_album", "tuple": ["p9", "a0"]}]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest status %d", code)
	}
	if !ss.WAL().HasRecords() {
		t.Fatal("ingest did not reach the WAL")
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}

	// Drained and closed: new executions are rejected crisply.
	code, raw := post(t, hs.URL+"/query",
		`{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query after shutdown: status %d body %s, want 503", code, raw)
	}

	cat, acc, err := schema.ParseDDL(serveDDL)
	if err != nil {
		t.Fatal(err)
	}
	re, rec, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatalf("reopen after graceful shutdown: %v", err)
	}
	defer re.Close()
	if rec.ReplayedOps != 0 || rec.ReplayedBatches != 0 {
		t.Fatalf("clean shutdown left WAL records to replay: %+v", rec)
	}
	if got := re.NumTuples(); got != 2 {
		t.Fatalf("recovered NumTuples = %d, want 2", got)
	}
}

// TestShutdownWaitsForInflight pins the drain: an executing request
// finishes (its answer is written) before Shutdown returns, while new
// requests are already being turned away.
func TestShutdownWaitsForInflight(t *testing.T) {
	_, srv, hs := newTestServer(t, engine.Options{}, Options{Workers: 1, MaxQueue: 1})
	srv.testHold = make(chan struct{})

	body := `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "timeout_ms": 5000}`
	inflight := make(chan int, 1)
	go func() {
		code, _ := post(t, hs.URL+"/query", body)
		inflight <- code
	}()
	// Wait for the request to occupy the worker slot.
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never acquired a worker slot")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	for !srv.closed.Load() {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v before the in-flight request finished", err)
	default:
	}

	// New work is rejected while the drain waits.
	code, _ := post(t, hs.URL+"/query", body)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d, want 503", code)
	}

	close(srv.testHold)
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with status %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownRacesAQueuedRequest: with the only worker held and a second
// request queued behind it, Shutdown turns the queued request away with
// 503 — it neither hangs until its deadline for a slot Shutdown keeps nor
// writes after the store closed — and returns only once the held request
// has drained.
func TestShutdownRacesAQueuedRequest(t *testing.T) {
	_, srv, hs := newTestServer(t, engine.Options{}, Options{Workers: 1, MaxQueue: 1, DefaultTimeout: 20 * time.Second})
	var storeClosed, wroteAfterClose atomic.Bool
	srv.closeStore = func() error { storeClosed.Store(true); return nil }
	apply := srv.ingest
	srv.ingest = func(ops []live.Op) error {
		if storeClosed.Load() {
			wroteAfterClose.Store(true)
		}
		return apply(ops)
	}
	hold := make(chan struct{})
	srv.testHold = hold

	send := func(path, body string) chan int {
		out := make(chan int, 1)
		go func() {
			code, _ := post(t, hs.URL+path, body)
			out <- code
		}()
		return out
	}
	held := send("/query", `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`)
	waitFor(t, "the first request to take the worker", func() bool { return len(srv.sem) == 1 })
	queued := send("/ingest", `{"ops": [{"op": "insert", "rel": "in_album", "tuple": ["p9", "a1"]}]}`)
	waitFor(t, "the second request to queue", func() bool { return srv.waiting.Load() == 2 })

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	select {
	case code := <-queued:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("queued request during shutdown: status %d, want 503", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the queued request hung behind Shutdown")
	}
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v while a request still held the worker", err)
	default:
	}

	close(hold)
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held request: status %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !storeClosed.Load() || wroteAfterClose.Load() {
		t.Fatalf("store closed %v, a write after the close %v", storeClosed.Load(), wroteAfterClose.Load())
	}
}
