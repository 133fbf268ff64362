package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/obs"
	"bcq/internal/shard"
	"bcq/internal/value"
	"bcq/internal/wal"
)

const hitText = `select photo_id from in_album where album_id = ?`

// hitBody is the /query body of hitText for album a0: the result-cache key
// warmHit leaves an answer under.
var hitBody = fmt.Sprintf(`{"query": %q, "args": ["a0"]}`, hitText)

// warmHit answers hitBody once, so that the result cache holds the answer.
func warmHit(t *testing.T, h http.Handler) {
	t.Helper()
	if code, raw := serveInProcess(h, hitBody); code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", code, raw)
	}
}

// rereadBody is a request body re-armed in place, so that a request can be
// sent again without allocating a new one.
type rereadBody struct{ strings.Reader }

func (*rereadBody) Close() error { return nil }

// countingWriter is a ResponseWriter that keeps the status and the number
// of bytes written, and nothing else.
type countingWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header         { return w.h }
func (w *countingWriter) WriteHeader(status int)      { w.status = status }
func (w *countingWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// newShardedServer wires a sharded store of the given shard count over
// serveScene's data into a server, durable in dir unless dir is "".
func newShardedServer(t *testing.T, shards int, dir string) (*shard.Store, *Server) {
	t.Helper()
	db, acc := serveData(t)
	ss, err := shard.New(db, acc, shard.Options{Shards: shards, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	eng, err := engine.NewSharded(ss, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Options{Ingest: ss.Apply, Metrics: ss})
	if err != nil {
		t.Fatal(err)
	}
	return ss, srv
}

// TestResultCacheHitAllocatesNothing: an untraced hit through the
// handler — the body read into the pooled decoder, the probe with its
// bytes, the view pin and the envelope written into the body's buffer —
// allocates nothing, on a live store and on a two-shard store, whose pin
// is a load of its published cut. Clock-free: it counts allocations and
// hits.
func TestResultCacheHitAllocatesNothing(t *testing.T) {
	_, liveSrv, _ := newTestServer(t, engine.Options{}, Options{})
	_, shardedSrv := newShardedServer(t, 2, "")
	for _, c := range []struct {
		name string
		srv  *Server
	}{{"live", liveSrv}, {"sharded P=2", shardedSrv}} {
		t.Run(c.name, func(t *testing.T) {
			srv := c.srv
			h := srv.Handler()
			warmHit(t, h)
			var body rereadBody
			req := httptest.NewRequest(http.MethodPost, "/query", nil)
			w := &countingWriter{h: http.Header{}}
			base := srv.CacheStats()
			const runs = 200
			n := testing.AllocsPerRun(runs, func() {
				body.Reset(hitBody)
				req.Body = &body
				w.status, w.n = 0, 0
				h.ServeHTTP(w, req)
			})
			if w.status != http.StatusOK || w.n == 0 {
				t.Fatalf("the hit answered status %d with %d bytes", w.status, w.n)
			}
			// AllocsPerRun runs the function once more than it counts.
			if cs := srv.CacheStats(); cs.Hits-base.Hits != runs+1 || cs.Misses != base.Misses {
				t.Fatalf("%d requests: %d hits, %d misses; every one must be a cached answer", runs+1, cs.Hits-base.Hits, cs.Misses-base.Misses)
			}
			// The race detector's pool drops a quarter of what is put back, and
			// a dropped decoder is allocated again.
			if n != 0 && !raceEnabled {
				t.Errorf("an untraced hit allocates %v times through the handler, want 0", n)
			}
		})
	}
}

// heldSync holds the log's next Sync until release is closed, and closes
// entered once it holds it.
type heldSync struct {
	wal.File
	hold             atomic.Bool
	entered, release chan struct{}
}

func (f *heldSync) Sync() error {
	if f.hold.CompareAndSwap(true, false) {
		close(f.entered)
		<-f.release
	}
	return f.File.Sync()
}

// TestCachedQueryDoesNotWaitForAHeldIngest: on a durable two-shard
// server, a cached /query is answered, from the cache, while an /ingest
// holds the writers' lock in its fsync; the ingest then commits. A pin
// that waited for the writer would hang here until the test binary's
// timeout.
func TestCachedQueryDoesNotWaitForAHeldIngest(t *testing.T) {
	ss, srv := newShardedServer(t, 2, t.TempDir())
	h := srv.Handler()
	warmHit(t, h)
	hs := &heldSync{entered: make(chan struct{}), release: make(chan struct{})}
	ss.WAL().WrapFile(func(f wal.File) wal.File { hs.File = f; hs.hold.Store(true); return hs })

	ingested := make(chan int)
	go func() {
		code, _ := ingestInProcess(h, `{"ops": [{"op": "insert", "rel": "friends", "tuple": ["u5", "f5"]}, {"op": "insert", "rel": "in_album", "tuple": ["p7", "a3"]}]}`)
		ingested <- code
	}()
	<-hs.entered
	code, raw := serveInProcess(h, hitBody)
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK || !env.Cached {
		t.Errorf("a cached /query during a held ingest: status %d, cached %v: %s", code, env.Cached, raw)
	}
	close(hs.release)
	if code := <-ingested; code != http.StatusOK {
		t.Fatalf("the held ingest answered status %d", code)
	}
}

// TestUntracedHitIsTheEnvelope: an untraced hit writes exactly
// appendEnvelope of the payload cached under its body, asks the engine
// nothing, and its result field is byte for byte that of the same body
// sent traced — whose trace ID, set through Header.Set, is adopted and
// echoed.
func TestUntracedHitIsTheEnvelope(t *testing.T) {
	_, srv, _ := newTestServer(t, engine.Options{}, Options{})
	h := srv.Handler()
	warmHit(t, h)
	lk := lookup{key: []byte(hitBody)}
	srv.lookup(&lk)
	if lk.body == nil {
		t.Fatal("the warmed answer is not cached")
	}

	before := srv.Engine().Stats()
	code, got := serveInProcess(h, hitBody)
	if code != http.StatusOK {
		t.Fatalf("untraced hit: status %d: %s", code, got)
	}
	if want := appendEnvelope(nil, lk.body, true, epochOf(lk.view), "", nil); !bytes.Equal(got, want) {
		t.Fatalf("untraced hit wrote\n %s\nwant\n %s", got, want)
	}
	if st := srv.Engine().Stats(); st != before {
		t.Errorf("an untraced hit moved the engine: %+v -> %+v", before, st)
	}

	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(hitBody))
	req.Header.Set("X-BQ-Trace-Id", "hit-trace-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced hit: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if id := rec.Header().Get("X-BQ-Trace-Id"); id != "hit-trace-1" {
		t.Errorf("traced hit echoed trace header %q, want the request's", id)
	}
	var env struct {
		Result  json.RawMessage `json:"result"`
		Cached  bool            `json:"cached"`
		TraceID string          `json:"trace_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if !env.Cached || env.TraceID != "hit-trace-1" || !bytes.Equal(env.Result, lk.body) {
		t.Errorf("traced hit: cached %v, trace_id %q, result\n %s\nwant the untraced hit's\n %s", env.Cached, env.TraceID, env.Result, lk.body)
	}
	// The trace wants the plan: the traced hit prepared once, from the
	// plan cache.
	if st := srv.Engine().Stats(); st.Prepares != before.Prepares+1 || st.CacheHits != before.CacheHits+1 {
		t.Errorf("a traced hit moved the engine %+v -> %+v; want one prepare, a plan-cache hit", before, st)
	}
}

// slowBody is a request body whose first read waits delay: a request
// that arrives, then takes that long to be read.
type slowBody struct {
	strings.Reader
	delay time.Duration
	read  bool
}

func (b *slowBody) Read(p []byte) (int, error) {
	if !b.read {
		b.read = true
		time.Sleep(b.delay)
	}
	return b.Reader.Read(p)
}

// TestTracedHitsPrepareFromThePlanCache: a cached body is answered through
// tracedHit whenever the request runs traced without a trace header (that
// case is TestUntracedHitIsTheEnvelope's): on a server whose slow-query
// log or trace recorder is armed, or when the body itself asks for the
// diagnostics block. Each such hit is cached:true with a result field
// byte-identical to the untraced hit's, and costs one prepare, which the
// plan cache answers. Where a trace recorder is armed, it keeps the hit
// with its duration measured from arrival: the hit's body takes
// bodyDelay to read, and the duration recorded is at least that and at
// most what the whole request took.
func TestTracedHitsPrepareFromThePlanCache(t *testing.T) {
	const bodyDelay = 2 * time.Millisecond
	// The untraced reference: a server with nothing armed.
	_, plain, _ := newTestServer(t, engine.Options{}, Options{})
	warmHit(t, plain.Handler())
	_, want := serveInProcess(plain.Handler(), hitBody)
	var ref queryEnvelope
	if err := json.Unmarshal(want, &ref); err != nil || !ref.Cached {
		t.Fatalf("untraced reference hit: %s", want)
	}
	debugBody := fmt.Sprintf(`{"query": %q, "args": ["a0"], "debug": true}`, hitText)
	// everything retains every trace it is offered.
	slowLog := func() *obs.SlowLog { return obs.NewSlowLog(&syncBuffer{}, 0, 1) }
	everything := func() *obs.TraceRecorder {
		return obs.NewTraceRecorder(obs.TraceRecorderOptions{SlowThreshold: time.Nanosecond})
	}
	cases := []struct {
		name string
		obs  *obs.Observer
		body string
	}{
		{"slow-query log", &obs.Observer{SlowLog: slowLog()}, hitBody},
		{"trace recorder", &obs.Observer{Traces: everything()}, hitBody},
		{"slow-query log and trace recorder", &obs.Observer{SlowLog: slowLog(), Traces: everything()}, hitBody},
		{"debug body", nil, debugBody},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, srv, _ := newTestServer(t, engine.Options{}, Options{Obs: tc.obs})
			send := func(delay time.Duration) queryEnvelope {
				t.Helper()
				req := httptest.NewRequest(http.MethodPost, "/query", &slowBody{Reader: *strings.NewReader(tc.body), delay: delay})
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, req)
				var env queryEnvelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
				}
				return env
			}
			if env := send(0); env.Cached {
				t.Fatal("the first request was answered from the cache")
			}
			before := srv.Engine().Stats()
			sent := time.Now()
			env := send(bodyDelay)
			took := time.Since(sent)
			if !env.Cached || !bytes.Equal(env.Result, ref.Result) {
				t.Errorf("traced hit: cached %v, result\n %s\nwant the untraced hit's\n %s", env.Cached, env.Result, ref.Result)
			}
			if env.TraceID == "" {
				t.Error("the hit did not run traced")
			}
			if tc.body == debugBody && (env.Debug == nil || env.Debug.Explain == "") {
				t.Errorf("a debug hit carries no diagnostics block: %+v", env.Debug)
			}
			if st := srv.Engine().Stats(); st.Prepares != before.Prepares+1 || st.CacheHits != before.CacheHits+1 {
				t.Errorf("a traced hit moved the engine %+v -> %+v; want one prepare, a plan-cache hit", before, st)
			}
			if rec := tc.obs.TraceRec(); rec != nil {
				kept := rec.Get(env.TraceID)
				if kept == nil {
					t.Fatal("the recorder kept no trace of the hit")
				}
				ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
				if kept.DurationMS < ms(bodyDelay) || kept.DurationMS > ms(took) {
					t.Errorf("the hit's recorded duration is %.3f ms; measured from arrival it is at least the %.3f ms its body took and at most the %.3f ms the request took", kept.DurationMS, ms(bodyDelay), ms(took))
				}
			}
		})
	}
}

// TestSpellingsShareAPlanNotAnAnswer: two spellings of one request — other
// whitespace and member order — are each answered correctly and each
// cached under its own bytes, and they share one plan-cache entry.
func TestSpellingsShareAPlanNotAnAnswer(t *testing.T) {
	_, srv, _ := newTestServer(t, engine.Options{}, Options{})
	h := srv.Handler()
	spellings := []string{
		fmt.Sprintf(`{"query":%q,"args":["a0"]}`, hitText),
		fmt.Sprintf(`{ "args" : [ "a0" ] , "query" : %q }`, hitText),
	}
	var results []json.RawMessage
	for _, body := range spellings {
		for i, wantCached := range []bool{false, true} {
			code, raw := serveInProcess(h, body)
			var env queryEnvelope
			if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", body, code, raw)
			}
			if env.Cached != wantCached {
				t.Errorf("%s, request %d: cached %v, want %v", body, i, env.Cached, wantCached)
			}
			results = append(results, env.Result)
		}
		if _, ok := srv.cache.get([]byte(body)); !ok {
			t.Errorf("no answer is cached under %s", body)
		}
	}
	for _, r := range results[1:] {
		if !bytes.Equal(r, results[0]) {
			t.Errorf("spellings answered\n %s\nand\n %s", results[0], r)
		}
	}
	if !strings.Contains(string(results[0]), `[["p1"],["p2"]]`) {
		t.Errorf("the answer is not album a0's photos: %s", results[0])
	}
	cs, st := srv.CacheStats(), srv.Engine().Stats()
	if cs.Entries != 2 || cs.Hits != 2 || cs.Misses != 2 {
		t.Errorf("result cache %+v; want one entry per spelling, 2 hits and 2 misses", cs)
	}
	if st.Prepares != 2 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("engine %+v; want two prepares, one plan built and found once", st)
	}
}

// TestDrainingServerRefusesCachedBody: once Shutdown has begun, a body
// whose answer is cached is answered 503 like any other: a draining
// server answers nothing new.
func TestDrainingServerRefusesCachedBody(t *testing.T) {
	_, srv, _ := newTestServer(t, engine.Options{}, Options{})
	h := srv.Handler()
	warmHit(t, h)
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := srv.CacheStats()
	if code, raw := serveInProcess(h, hitBody); code != http.StatusServiceUnavailable {
		t.Fatalf("a cached body on a draining server: status %d: %s", code, raw)
	}
	if cs := srv.CacheStats(); cs.Hits != base.Hits {
		t.Errorf("a draining server counted a hit: %+v -> %+v", base, cs)
	}
}

// TestTraceForReadsTheCanonicalHeader: the trace header is found without
// canonicalising its name per request, so a request without it costs no
// allocation to be told it is untraced.
func TestTraceForReadsTheCanonicalHeader(t *testing.T) {
	_, srv, _ := newTestServer(t, engine.Options{}, Options{})
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	if n := testing.AllocsPerRun(100, func() {
		if srv.traceFor(req, false) != nil {
			t.Fatal("a request without the header was traced")
		}
	}); n != 0 {
		t.Errorf("traceFor without the header allocates %v times, want 0", n)
	}
	req.Header.Set("X-BQ-Trace-Id", "set-by-client")
	if tr := srv.traceFor(req, false); tr == nil || tr.ID() != "set-by-client" {
		t.Errorf("traceFor did not adopt the header set by Header.Set: %v", tr)
	}
}

// TestLongTextAnsweredNotCached: a body past maxCachedBody — here because
// its text is — is answered every time, and never takes an entry of the
// result cache.
func TestLongTextAnsweredNotCached(t *testing.T) {
	_, srv, _ := newTestServer(t, engine.Options{}, Options{})
	h := srv.Handler()
	long := hitText + strings.Repeat(" ", 5<<10)
	body := fmt.Sprintf(`{"query": %q, "args": ["a0"]}`, long)
	before := srv.CacheStats()
	for i := 0; i < 2; i++ {
		code, raw := serveInProcess(h, body)
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, raw)
		}
		if env.Cached {
			t.Errorf("request %d of a %d-byte body was answered from the cache", i, len(body))
		}
	}
	if after := srv.CacheStats(); after.Entries != before.Entries || after.Hits != before.Hits {
		t.Errorf("a %d-byte body moved the result cache: %+v -> %+v", len(body), before, after)
	}
}

// cacheableBody is the oracle of what the result cache may keep an answer
// to: a body within maxCachedBody that encoding/json decodes as a query
// with a text, valid arguments, no limit and no cursor.
func cacheableBody(body []byte) bool {
	if len(body) > maxCachedBody {
		return false
	}
	req, err := oracleQuery(body)
	return err == nil && req.Query != "" && req.argErr == nil && req.Limit == 0 && req.Cursor == ""
}

// FuzzBodyKeyedAnswers: any body, sent twice to a server over a small live
// store, is answered the second time with the result an uncached server
// computes for it, byte for byte; it says "cached":true only for a body
// that decodes as a cacheable query (and does, for such a body answered
// 200 the first time); and no other body — paged, a cursor, bad
// arguments, past the bound, malformed — ever takes an entry. A deadline
// is the client's: where either server answers 504, the results are not
// compared. A failing body lands in testdata/fuzz/FuzzBodyKeyedAnswers/:
//
//	go test -run '^$' -fuzz '^FuzzBodyKeyedAnswers$' -fuzztime 20s ./internal/serve/
func FuzzBodyKeyedAnswers(f *testing.F) {
	ls := serveScene(f)
	eng, err := engine.NewLive(ls, engine.Options{})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(eng, Options{})
	if err != nil {
		f.Fatal(err)
	}
	plain, err := New(eng, Options{ResultCacheSize: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cacheable := cacheableBody(body)
		entries := srv.CacheStats().Entries
		code1, _ := serveInProcess(srv.Handler(), string(body))
		code, raw := serveInProcess(srv.Handler(), string(body))
		wantCode, want := serveInProcess(plain.Handler(), string(body))
		if _, stored := srv.cache.get(body); stored && !cacheable {
			t.Fatalf("%q: not a cacheable query, yet an entry is stored under it", body)
		}
		if !cacheable && srv.CacheStats().Entries > entries {
			t.Fatalf("%q: not a cacheable query, yet the cache grew from %d entries", body, entries)
		}
		if code == http.StatusGatewayTimeout || wantCode == http.StatusGatewayTimeout {
			return
		}
		if code != wantCode {
			t.Fatalf("%q: status %d, an uncached server answers %d:\n %s\n %s", body, code, wantCode, raw, want)
		}
		if code != http.StatusOK {
			if !bytes.Equal(raw, want) {
				t.Fatalf("%q: answered\n %s\nan uncached server answers\n %s", body, raw, want)
			}
			return
		}
		var got, ref queryEnvelope
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("%q: %v: %s", body, err, raw)
		}
		if err := json.Unmarshal(want, &ref); err != nil {
			t.Fatalf("%q: %v: %s", body, err, want)
		}
		if !bytes.Equal(got.Result, ref.Result) {
			t.Fatalf("%q: result\n %s\nan uncached server's\n %s", body, got.Result, ref.Result)
		}
		if got.Cached && !cacheable {
			t.Fatalf("%q: answered from the cache, but it is not a cacheable query", body)
		}
		if cacheable && code1 == http.StatusOK && !got.Cached {
			t.Fatalf("%q: a cacheable query answered 200 was not cached", body)
		}
	})
}

// TestQueuedQueryReadsTheWriteItWaitedBehind: a cacheable query whose
// probe finds its entry stale pins a view and queues for the worker; a
// write to what it reads commits while it waits. When it runs, the
// engine's epoch has moved, so it asks the cache again and executes on
// the view current then: the answer carries the post-write epoch and
// tuples, not those of the view its probe pinned.
func TestQueuedQueryReadsTheWriteItWaitedBehind(t *testing.T) {
	ls, srv, _ := newTestServer(t, engine.Options{}, Options{Workers: 1, MaxQueue: 1})
	h := srv.Handler()
	warmHit(t, h)
	// A write to the group the answer read: the entry stays, stale.
	if _, err := ls.Apply([]live.Op{live.Insert("in_album", value.Tuple{value.Str("q1"), value.Str("a0")})}); err != nil {
		t.Fatal(err)
	}

	// Hold the worker slot: the request probes, pins its view, is admitted
	// and waits there.
	srv.testHold = make(chan struct{})
	type answer struct {
		code int
		raw  []byte
	}
	done := make(chan answer)
	go func() {
		code, raw := serveInProcess(h, hitBody)
		done <- answer{code, raw}
	}()
	for srv.waiting.Load() < 1 {
		runtime.Gosched()
	}
	if _, err := ls.Apply([]live.Op{live.Insert("in_album", value.Tuple{value.Str("q2"), value.Str("a0")})}); err != nil {
		t.Fatal(err)
	}
	close(srv.testHold)

	got := <-done
	if got.code != http.StatusOK {
		t.Fatalf("status %d: %s", got.code, got.raw)
	}
	var env envelope
	if err := json.Unmarshal(got.raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Cached || env.Epoch != ls.EpochKey() {
		t.Errorf("answer cached=%v at epoch %s, want executed at the post-write epoch %s", env.Cached, env.Epoch, ls.EpochKey())
	}
	if !bytes.Contains(env.Result, []byte(`"q2"`)) {
		t.Errorf("answer %s lacks the tuple written while the request queued", env.Result)
	}
}
