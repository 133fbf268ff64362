package serve

import (
	"bytes"
	"context"
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
	"bcq/internal/schema"
	"bcq/internal/stats"
	"bcq/internal/storage"
	"bcq/internal/value"
)

const serveDDL = `
relation in_album(photo_id, album_id)
relation friends(user_id, friend_id)
relation tagging(photo_id, tagger_id, taggee_id)

constraint in_album: (album_id) -> (photo_id, 1000)
constraint friends: (user_id) -> (friend_id, 5000)
constraint tagging: (photo_id, taggee_id) -> (tagger_id, 1)
`

func strT(vals ...string) value.Tuple {
	tu := make(value.Tuple, len(vals))
	for i, v := range vals {
		tu[i] = value.Str(v)
	}
	return tu
}

// serveScene builds a live store with hand-checkable social data.
func serveScene(t testing.TB) *live.Store {
	t.Helper()
	db, acc := serveData(t)
	ls, err := live.New(db, acc, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ls
}

// serveData is serveScene's data and access schema, for a store of
// another kind.
func serveData(t testing.TB) (*storage.Database, *schema.AccessSchema) {
	t.Helper()
	cat, acc, err := schema.ParseDDL(serveDDL)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	ins := func(rel string, vals ...string) {
		t.Helper()
		if err := db.Insert(rel, strT(vals...)); err != nil {
			t.Fatal(err)
		}
	}
	ins("in_album", "p1", "a0")
	ins("in_album", "p2", "a0")
	ins("in_album", "p3", "a1")
	ins("friends", "u0", "f1")
	ins("friends", "u0", "f2")
	ins("friends", "u1", "f9")
	ins("tagging", "p1", "f1", "u0")
	ins("tagging", "p2", "s9", "u0")
	ins("tagging", "p3", "f1", "u0")
	return db, acc
}

// newTestServer wires a live engine into a serve.Server and an
// httptest.Server.
func newTestServer(t testing.TB, engOpts engine.Options, opts Options) (*live.Store, *Server, *httptest.Server) {
	t.Helper()
	ls := serveScene(t)
	eng, err := engine.NewLive(ls, engOpts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Ingest = func(ops []live.Op) error {
		_, err := ls.Apply(ops)
		return err
	}
	opts.Metrics = ls
	srv, err := New(eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return ls, srv, hs
}

// post sends a JSON body and decodes status plus raw response.
func post(t testing.TB, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// envelope mirrors the /query response.
type envelope struct {
	Result json.RawMessage `json:"result"`
	Cached bool            `json:"cached"`
	Epoch  string          `json:"epoch"`
	Error  string          `json:"error"`
}

func queryOnce(t testing.TB, base, body string) (int, envelope) {
	t.Helper()
	code, raw := post(t, base+"/query", body)
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("undecodable response %s: %v", raw, err)
	}
	return code, env
}

func TestQueryServedAndCached(t *testing.T) {
	_, srv, hs := newTestServer(t, engine.Options{}, Options{})
	body := `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`

	code, env := queryOnce(t, hs.URL, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, env.Error)
	}
	if env.Cached {
		t.Error("first execution reported cached")
	}
	var payload struct {
		Cols   []string   `json:"cols"`
		Tuples [][]string `json:"tuples"`
		DQSize int64      `json:"dq_size"`
	}
	if err := json.Unmarshal(env.Result, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Tuples) != 2 || payload.Tuples[0][0] != "p1" || payload.Tuples[1][0] != "p2" {
		t.Errorf("tuples = %v, want [[p1] [p2]]", payload.Tuples)
	}

	code, env2 := queryOnce(t, hs.URL, body)
	if code != http.StatusOK || !env2.Cached {
		t.Errorf("repeat at one epoch: status %d cached %v, want a cache hit", code, env2.Cached)
	}
	if string(env2.Result) != string(env.Result) {
		t.Errorf("cached payload differs from executed payload:\n %s\n %s", env2.Result, env.Result)
	}
	cs := srv.CacheStats()
	if cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 miss, 1 entry", cs)
	}
}

func TestIngestInvalidatesNaturally(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{})
	body := `{"query": "select photo_id from in_album where album_id = ?", "args": ["a1"]}`

	_, before := queryOnce(t, hs.URL, body)
	if _, again := queryOnce(t, hs.URL, body); !again.Cached {
		t.Fatal("warm-up did not hit the cache")
	}

	code, raw := post(t, hs.URL+"/ingest",
		`{"ops": [{"op": "insert", "rel": "in_album", "tuple": ["p9", "a1"]}]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", code, raw)
	}

	code, after := queryOnce(t, hs.URL, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, after.Error)
	}
	if after.Cached {
		t.Error("post-ingest query served from cache (stale hit)")
	}
	if after.Epoch == before.Epoch {
		t.Errorf("epoch did not advance across ingest (%s)", after.Epoch)
	}
	if string(after.Result) == string(before.Result) {
		t.Error("post-ingest answer identical to pre-ingest answer despite new tuple")
	}
}

// TestUnrelatedWriteKeepsAnswerCached: a write moves the epoch, but one
// that touches no group an answer read leaves the answer cached — served
// as a hit, labelled with the new epoch, byte for byte what executing on
// the new epoch gives.
func TestUnrelatedWriteKeepsAnswerCached(t *testing.T) {
	ls, srv, hs := newTestServer(t, engine.Options{}, Options{})
	body := `{"query": "select photo_id from in_album where album_id = ?", "args": ["a1"]}`

	_, before := queryOnce(t, hs.URL, body)
	// Another album's group and another relation: nothing album a1 read.
	// (The album swaps a photo, so that no group changes size and the plan
	// does not drift: a re-plan would miss for a reason of its own.)
	code, raw := post(t, hs.URL+"/ingest", `{"ops": [
		{"op": "delete", "rel": "in_album", "tuple": ["p2", "a0"]},
		{"op": "insert", "rel": "in_album", "tuple": ["p9", "a0"]},
		{"op": "insert", "rel": "friends", "tuple": ["u7", "f1"]}]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", code, raw)
	}

	code, after := queryOnce(t, hs.URL, body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, after.Error)
	}
	if !after.Cached {
		t.Error("an answer the write did not touch was executed again")
	}
	if after.Epoch == before.Epoch || after.Epoch != ls.Snapshot().EpochKey() {
		t.Errorf("hit labelled epoch %s; want the new epoch %s (was %s)", after.Epoch, ls.Snapshot().EpochKey(), before.Epoch)
	}
	if string(after.Result) != string(before.Result) {
		t.Errorf("cached answer changed across an unrelated write:\n %s\n %s", before.Result, after.Result)
	}
	p, err := srv.Engine().Prepare("select photo_id from in_album where album_id = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecOn(ls.Snapshot(), value.Str("a1"))
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := marshalResult(res); string(after.Result) != string(want) {
		t.Errorf("hit %s; executing on the new epoch gives %s", after.Result, want)
	}
	if cs := srv.CacheStats(); cs.Hits != 1 || cs.Misses != 1 || cs.Invalidated != 0 || cs.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 hit, 1 miss, no invalidation, 1 entry", cs)
	}
}

func TestIngestErrors(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{})

	// tagging: (photo_id, taggee_id) -> (tagger_id, 1) — a second tagger
	// for (p1, u0) violates the bound.
	code, raw := post(t, hs.URL+"/ingest",
		`{"ops": [{"op": "insert", "rel": "tagging", "tuple": ["p1", "zz", "u0"]}]}`)
	if code != http.StatusConflict {
		t.Errorf("bound violation: status %d (%s), want 409", code, raw)
	}
	code, raw = post(t, hs.URL+"/ingest",
		`{"ops": [{"op": "delete", "rel": "friends", "tuple": ["nope", "nope"]}]}`)
	if code != http.StatusConflict {
		t.Errorf("missing delete: status %d (%s), want 409", code, raw)
	}
	code, raw = post(t, hs.URL+"/ingest", `{"ops": [{"op": "upsert", "rel": "friends", "tuple": ["a", "b"]}]}`)
	if code != http.StatusBadRequest {
		t.Errorf("unknown op: status %d (%s), want 400", code, raw)
	}

	// A sealed engine has no ingest path.
	cat, acc, err := schema.ParseDDL(serveDDL)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	eng, err := engine.New(cat, acc, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(sealed.Handler())
	defer hs2.Close()
	code, _ = post(t, hs2.URL+"/ingest", `{"ops": [{"op": "insert", "rel": "friends", "tuple": ["a", "b"]}]}`)
	if code != http.StatusNotImplemented {
		t.Errorf("sealed ingest: status %d, want 501", code)
	}
}

func TestPrepareEndpoint(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{})
	code, raw := post(t, hs.URL+"/prepare", `{"query": "select photo_id from in_album where album_id = ?"}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var resp struct {
		Fingerprint string   `json:"fingerprint"`
		NumParams   int      `json:"num_params"`
		FetchBound  string   `json:"fetch_bound"`
		PlanSteps   int      `json:"plan_steps"`
		PlanTier    string   `json:"plan_tier"`
		EstFetch    float64  `json:"est_fetch"`
		FetchOrder  []string `json:"fetch_order"`
		StatsFP     string   `json:"stats_fingerprint"`
		Explain     string   `json:"explain"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.NumParams != 1 || resp.Fingerprint == "" || resp.FetchBound == "" {
		t.Errorf("prepare response %+v incomplete", resp)
	}
	if len(resp.FetchOrder) != resp.PlanSteps || resp.StatsFP == "" || !strings.Contains(resp.Explain, "cost-based") {
		t.Errorf("prepare response lacks cost-based plan fields: %+v", resp)
	}
	if resp.PlanTier != "optimized" {
		t.Errorf("plan_tier = %q, want optimized", resp.PlanTier)
	}

	code, _ = post(t, hs.URL+"/prepare", `{"query": "select photo_id from in_album"}`)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("unbounded prepare: status %d, want 422", code)
	}
}

func TestQueryValidationErrors(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{})
	cases := []struct {
		body string
		want int
	}{
		{`{"query": ""}`, http.StatusBadRequest},
		{`{"query": "select nope from nowhere"}`, http.StatusBadRequest},
		{`{"query": "select photo_id from in_album where album_id = ?", "args": [1.5]}`, http.StatusBadRequest},
		{`{"query": "select photo_id from in_album where album_id = ?", "args": []}`, http.StatusBadRequest},
		{`{"query": "select photo_id from in_album where album_id = ?", "args": [null]}`, http.StatusBadRequest},
		{`{"unknown_field": 1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		code, _ := post(t, hs.URL+"/query", c.body)
		if code != c.want {
			t.Errorf("%s: status %d, want %d", c.body, code, c.want)
		}
	}
	resp, err := http.Get(hs.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
	}
}

func TestBackpressureAndDeadlines(t *testing.T) {
	_, srv, hs := newTestServer(t, engine.Options{}, Options{
		Workers:  1,
		MaxQueue: 1,
	})
	hold := make(chan struct{})
	srv.testHold = hold

	body := `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`
	type outcome struct{ code int }
	results := make(chan outcome, 3)
	var wg sync.WaitGroup

	// First request occupies the single worker (blocked on hold); the
	// second queues; both succeed after release.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _ := post(t, hs.URL+"/query", body)
			results <- outcome{code}
		}()
	}
	// Wait until both are admitted (1 executing + 1 queued).
	deadline := time.Now().Add(5 * time.Second)
	for srv.waiting.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("requests never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}

	// The third exceeds workers+maxQueue and is rejected immediately.
	code, _ := post(t, hs.URL+"/query", body)
	if code != http.StatusServiceUnavailable {
		t.Errorf("overflow request: status %d, want 503", code)
	}

	close(hold)
	wg.Wait()
	close(results)
	for r := range results {
		if r.code != http.StatusOK {
			t.Errorf("admitted request: status %d, want 200", r.code)
		}
	}

	// Deadline: a held execution must answer 504 within the request
	// timeout, not hang. The argument is one nobody has asked about: a
	// cached answer would not execute at all (see
	// TestCachedAnswersBypassAdmission).
	srv.testHold = make(chan struct{})
	start := time.Now()
	code, _ = post(t, hs.URL+"/query",
		`{"query": "select photo_id from in_album where album_id = ?", "args": ["a1"], "timeout_ms": 50}`)
	if code != http.StatusGatewayTimeout {
		t.Errorf("held execution: status %d, want 504", code)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("deadline took %v to fire", elapsed)
	}
	close(srv.testHold)
}

// TestCachedAnswersBypassAdmission is the converse of the backpressure
// test: with every worker held and the queue full, a question whose plan
// and answer are cached is answered 200 on the handler goroutine, while
// one that would have to execute is shed 503. The fast lane never waited
// for a slot, so the queue-wait histogram does not see it.
func TestCachedAnswersBypassAdmission(t *testing.T) {
	_, srv, hs := newTestServer(t, engine.Options{}, Options{
		Workers:  1,
		MaxQueue: 1,
		Obs:      &obs.Observer{Metrics: obs.NewRegistry()},
	})
	const q = `"query": "select photo_id from in_album where album_id = ?"`
	hot := `{` + q + `, "args": ["a0"]}`
	if code, env := queryOnce(t, hs.URL, hot); code != http.StatusOK || env.Cached {
		t.Fatalf("warm-up: status %d cached %v", code, env.Cached)
	}
	waited := srv.queueSec.Count()
	if waited != 1 {
		t.Fatalf("queue-wait histogram saw %d requests after one execution, want 1", waited)
	}

	hold := make(chan struct{})
	srv.testHold = hold
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, raw := post(t, hs.URL+"/query", `{`+q+`, "args": ["a1"]}`); code != http.StatusOK {
				t.Errorf("held request: status %d: %s", code, raw)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.waiting.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("requests never filled the worker and the queue")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 3; i++ {
		if code, env := queryOnce(t, hs.URL, hot); code != http.StatusOK || !env.Cached {
			t.Errorf("cached question on a saturated server: status %d cached %v, want a cached 200", code, env.Cached)
		}
	}
	if code, _ := post(t, hs.URL+"/query", `{`+q+`, "args": ["a2"]}`); code != http.StatusServiceUnavailable {
		t.Errorf("uncached question on a saturated server: status %d, want 503", code)
	}
	if srv.waiting.Load() != 2 {
		t.Errorf("%d requests admitted, want the 2 held ones: the fast lane takes no slot", srv.waiting.Load())
	}
	close(hold)
	wg.Wait()
	// One execution warmed the cache and two were held; the three cached
	// answers and the shed request never waited for a slot.
	if got := srv.queueSec.Count(); got != waited+2 {
		t.Errorf("queue-wait histogram saw %d requests, want %d: cached answers do not queue", got, waited+2)
	}
}

// TestExpiredRequestsHitAnswersMissTimesOut pins what /query does with a
// request whose context is already cancelled (its client has gone) or
// past its deadline when the handler starts. A result-cache hit answers
// 200 with the cached body, byte for byte what a live request gets: the
// answer is ready, writing it is no work, and the hit path asks no
// deadline context. A miss answers 504 before the engine is asked: it is
// counted as a timeout, prepares nothing and caches nothing.
func TestExpiredRequestsHitAnswersMissTimesOut(t *testing.T) {
	_, srv, _ := newTestServer(t, engine.Options{}, Options{})
	h := srv.Handler()
	const q = `"query": "select photo_id from in_album where album_id = ?"`
	hot := `{` + q + `, "args": ["a0"]}`
	if code, raw := serveInProcess(h, hot); code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", code, raw)
	}
	code, want := serveInProcess(h, hot)
	if code != http.StatusOK || !bytes.Contains(want, []byte(`"cached":true`)) {
		t.Fatalf("second ask: status %d, want a cached 200: %s", code, want)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"cancelled", cancelled}, {"past its deadline", expired}} {
		ask := func(body string) (int, []byte) {
			req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)).WithContext(c.ctx)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec.Code, rec.Body.Bytes()
		}
		eng, cache, timeouts := srv.Engine().Stats(), srv.CacheStats(), srv.timeouts.Load()

		if code, got := ask(hot); code != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s hit: status %d body %s, want 200 and the cached answer %s", c.name, code, got, want)
		}
		if code, got := ask(`{` + q + `, "args": ["a1"]}`); code != http.StatusGatewayTimeout || !bytes.Contains(got, []byte("deadline exceeded")) {
			t.Errorf("%s miss: status %d body %s, want 504 deadline exceeded", c.name, code, got)
		}

		after, afterCache := srv.Engine().Stats(), srv.CacheStats()
		if after.Prepares != eng.Prepares {
			t.Errorf("%s: the engine was asked %d times, want never", c.name, after.Prepares-eng.Prepares)
		}
		if afterCache.Hits != cache.Hits+1 || afterCache.Entries != cache.Entries {
			t.Errorf("%s: result cache %+v after %+v, want one more hit and no new entry", c.name, afterCache, cache)
		}
		if n := srv.timeouts.Load() - timeouts; n != 1 {
			t.Errorf("%s: %d timeouts counted, want 1 (the miss)", c.name, n)
		}
	}
}

// waitFor polls cond until it holds, failing the test if it never does.
// It orders nothing: the callers' channels do that; it only waits for a
// request to reach a state another goroutine is driving it into.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIngest504MeansNotApplied is the write half of the deadline
// contract. An /ingest whose deadline fires before its work starts
// answers 504, and its batch is never applied — not when the 504 is
// written and not after the request lets go of its slot — so a client may
// retry it without writing the batch twice. A write that has started runs
// to its end and answers how it ended, however long that took.
func TestIngest504MeansNotApplied(t *testing.T) {
	ls, srv, hs := newTestServer(t, engine.Options{}, Options{Workers: 1, DefaultTimeout: 50 * time.Millisecond})
	const batch = `{"ops": [{"op": "insert", "rel": "in_album", "tuple": ["p9", "a1"]}]}`
	epoch, tuples := ls.Epoch(), ls.NumTuples()

	hold := make(chan struct{})
	srv.testHold = hold
	if code, raw := post(t, hs.URL+"/ingest", batch); code != http.StatusGatewayTimeout {
		t.Fatalf("held ingest: status %d (%s), want 504", code, raw)
	}
	close(hold)
	waitFor(t, "the timed-out ingest to give its slot back", func() bool { return srv.waiting.Load() == 0 })
	if ls.Epoch() != epoch || ls.NumTuples() != tuples {
		t.Fatalf("a 504 ingest was applied: epoch %d → %d, tuples %d → %d", epoch, ls.Epoch(), tuples, ls.NumTuples())
	}

	// Started, then outlived its deadline: applied, and answered 200.
	apply := srv.ingest
	srv.ingest = func(ops []live.Op) error {
		time.Sleep(4 * srv.timeout)
		return apply(ops)
	}
	if code, raw := post(t, hs.URL+"/ingest", batch); code != http.StatusOK {
		t.Fatalf("a started ingest: status %d (%s), want 200", code, raw)
	}
	if ls.NumTuples() != tuples+1 {
		t.Fatalf("a 200 ingest left %d tuples, want %d", ls.NumTuples(), tuples+1)
	}
}

// TestPanicAnswers500AndFreesItsSlot: a panic inside execution costs one
// 500, not the process and not the slot — the one worker is free again
// and the next request is admitted and answered.
func TestPanicAnswers500AndFreesItsSlot(t *testing.T) {
	_, srv, hs := newTestServer(t, engine.Options{}, Options{Workers: 1, MaxQueue: 1})
	apply := srv.ingest
	srv.ingest = func([]live.Op) error { panic("injected") }
	code, raw := post(t, hs.URL+"/ingest", `{"ops": [{"op": "insert", "rel": "in_album", "tuple": ["p9", "a1"]}]}`)
	if code != http.StatusInternalServerError || !strings.Contains(string(raw), "injected") {
		t.Fatalf("panicking ingest: status %d (%s), want a 500 naming the panic", code, raw)
	}
	if n := srv.waiting.Load(); n != 0 {
		t.Fatalf("%d requests still admitted after the panic, want 0", n)
	}
	srv.ingest = apply
	if code, env := queryOnce(t, hs.URL, `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`); code != http.StatusOK {
		t.Fatalf("the request after the panic: status %d (%s), want 200", code, env.Error)
	}
}

func TestStatsAndHealth(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{})
	if _, env := queryOnce(t, hs.URL, `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`); env.Error != "" {
		t.Fatal(env.Error)
	}

	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Engine struct {
			Prepares int64 `json:"Prepares"`
		} `json:"engine"`
		Cache       CacheStats               `json:"result_cache"`
		Epoch       string                   `json:"epoch"`
		NumTuples   int64                    `json:"num_tuples"`
		Relations   map[string]storage.Stats `json:"relations"`
		Cardinality *stats.Snapshot          `json:"cardinality"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Prepares != 1 || st.NumTuples != 9 || st.Epoch == "" {
		t.Errorf("stats = %+v, want 1 prepare, 9 tuples, an epoch", st)
	}
	if _, ok := st.Relations["in_album"]; !ok {
		t.Errorf("stats lack the per-relation breakdown: %+v", st.Relations)
	}
	if st.Cardinality == nil || len(st.Cardinality.ACs) == 0 || st.Cardinality.Rels["in_album"].Rows == 0 {
		t.Errorf("stats lack the cardinality block: %+v", st.Cardinality)
	}

	hz, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	var h struct {
		OK bool `json:"ok"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.OK {
		t.Error("healthz not ok")
	}
}

func TestResultCacheDisabled(t *testing.T) {
	_, srv, hs := newTestServer(t, engine.Options{}, Options{ResultCacheSize: -1})
	body := `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`
	for i := 0; i < 2; i++ {
		code, env := queryOnce(t, hs.URL, body)
		if code != http.StatusOK || env.Cached {
			t.Fatalf("request %d: status %d cached %v, want uncached 200", i, code, env.Cached)
		}
	}
	if cs := srv.CacheStats(); cs.Hits != 0 || cs.Entries != 0 {
		t.Errorf("disabled cache reported activity: %+v", cs)
	}
}

func TestResultCacheCapacityBound(t *testing.T) {
	_, srv, hs := newTestServer(t, engine.Options{}, Options{ResultCacheSize: 2})
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"query": "select photo_id from in_album where album_id = ?", "args": ["a%d"]}`, i)
		if code, env := queryOnce(t, hs.URL, body); code != http.StatusOK {
			t.Fatal(env.Error)
		}
	}
	if cs := srv.CacheStats(); cs.Entries != 2 {
		t.Errorf("cache holds %d entries, want the capacity bound 2", cs.Entries)
	}
}
