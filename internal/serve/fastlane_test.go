package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/value"
)

// queryEnvelope is the /query response as a struct: what the server
// encoded reflectively before appendEnvelope, kept as its reference.
type queryEnvelope struct {
	Result  json.RawMessage `json:"result"`
	Cached  bool            `json:"cached"`
	Epoch   string          `json:"epoch"`
	TraceID string          `json:"trace_id,omitempty"`
	Debug   *debugPayload   `json:"debug,omitempty"`
}

// TestAppendEnvelopeMatchesJSONEncoder: the hand-written envelope must be
// byte for byte what json.Encoder gave for the struct, trailing newline
// included — plain, traced, with the debug block, and with epoch keys and
// trace IDs (a client's header, adopted verbatim) that need escaping.
func TestAppendEnvelopeMatchesJSONEncoder(t *testing.T) {
	result := json.RawMessage(`{"cols":["photo_id"],"tuples":[["p1"],["\u003cp2\u003e"],[7]],"stats":{"index_lookups":1,"tuples_fetched":2,"tuples_scanned":0},"dq_size":2}`)
	spans := json.RawMessage(`{"trace_id":"abc","root":{"name":"query","duration_us":12,"tags":{"result_cache":"hit"}}}`)
	debugs := []*debugPayload{
		nil,
		{Explain: "plan (cost-based)\n  fetch T1: \"in_album\" via <in_album: (album_id) -> (photo_id, 1000)> & more\n"},
		{Explain: "", Spans: spans},
		{Explain: "tab\there \\ back", Spans: json.RawMessage("null")},
	}
	epochs := []string{"live:0", "live:18446744073709551615", "shard:3,0,12", "sealed", "", `he"llo\`, "<e&>", "épo\u2028que 🙂", "bad\xff\x00utf8\x7f"}
	traceIDs := []string{"", "9f3c2a1b0d4e5f60", `client "id"`, "<script>", "tr\u00e4ce\n"}
	buf := []byte("reused")
	for _, debug := range debugs {
		for _, epoch := range epochs {
			for _, id := range traceIDs {
				for _, cached := range []bool{true, false} {
					var want bytes.Buffer
					env := queryEnvelope{Result: result, Cached: cached, Epoch: epoch, TraceID: id, Debug: debug}
					if err := json.NewEncoder(&want).Encode(env); err != nil {
						t.Fatal(err)
					}
					buf = appendEnvelope(buf[:0], result, cached, epochText(epoch), id, debug)
					if !bytes.Equal(buf, want.Bytes()) {
						t.Fatalf("epoch %q trace %q cached %v debug %+v:\n got %s\nwant %s", epoch, id, cached, debug, buf, want.Bytes())
					}
				}
			}
		}
	}
}

// serveInProcess sends one /query body to the handler without a socket.
func serveInProcess(h http.Handler, body string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestCountersStayExact: however a /query is answered — fast lane,
// worker with the lookup handed over, cached rejection — it moves exactly
// one of the result cache's hits and misses when it reaches the result
// cache, and every request that reaches the engine moves Prepares by one
// and exactly one of the plan cache's hits and misses. An untraced hit
// never reaches the engine. A fast-lane probe that misses and the
// execution that follows are one miss, not two, and an invalidation is
// one of the misses. Answers are keyed by the request body: two spellings
// of one shape share a plan, not an answer.
func TestCountersStayExact(t *testing.T) {
	ls, srv, _ := newTestServer(t, engine.Options{}, Options{})
	h := srv.Handler()
	const (
		albums  = `select photo_id from in_album where album_id = ?`
		albums2 = `select  in_album.photo_id  from in_album where in_album.album_id = ?`
		friends = `select friend_id from friends where user_id = ?`
	)
	ask := func(text, arg string, wantCached bool) {
		t.Helper()
		code, raw := serveInProcess(h, fmt.Sprintf(`{"query": %q, "args": [%q]}`, text, arg))
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK {
			t.Fatalf("%s [%s]: status %d: %s", text, arg, code, raw)
		}
		if env.Cached != wantCached {
			t.Fatalf("%s [%s]: cached %v, want %v", text, arg, env.Cached, wantCached)
		}
	}
	// Each (text, argument) pair is answered once and cached after that;
	// the second spelling finds the plan the first one built.
	n, seen := 0, map[string]bool{}
	askOnce := func(text, arg string) {
		t.Helper()
		ask(text, arg, seen[text+arg])
		seen[text+arg] = true
		n++
	}
	for round := 0; round < 3; round++ {
		for _, arg := range []string{"a0", "a1", "a0"} {
			askOnce(albums, arg)
			askOnce(albums2, arg)
		}
		askOnce(friends, "u0")
	}
	// Five pairs, five executions: two plans built, three plan-cache hits;
	// the other sixteen requests never reached the engine.
	eng, cache := srv.Engine().Stats(), srv.CacheStats()
	if n != 21 || eng.Prepares != 5 || eng.CacheHits != 3 || eng.CacheMisses != 2 {
		t.Errorf("%d requests: engine %d prepares, %d hits, %d misses; want 21 requests, 5 prepares, 3 hits and 2 misses",
			n, eng.Prepares, eng.CacheHits, eng.CacheMisses)
	}
	if cache.Hits != 16 || cache.Misses != 5 || cache.Invalidated != 0 {
		t.Errorf("result cache %d hits, %d misses, %d invalidated; want 16, 5 and 0", cache.Hits, cache.Misses, cache.Invalidated)
	}

	// A write that swaps a photo of album a0 for another moves the epoch
	// and what both a0 answers read, and keeps every group's size, so no
	// plan drifts: each a0 answer misses once, as an invalidation, and
	// nothing else does — the a1 and friends answers read nothing the
	// write touched.
	if _, err := ls.Apply([]live.Op{
		live.Delete("in_album", strT("p2", "a0")),
		live.Insert("in_album", strT("p7", "a0")),
	}); err != nil {
		t.Fatal(err)
	}
	ask(albums, "a0", false)
	ask(albums2, "a0", false)
	ask(albums2, "a0", true)
	ask(albums, "a1", true)
	ask(friends, "u0", true)
	n += 5

	eng, cache = srv.Engine().Stats(), srv.CacheStats()
	if eng.Prepares != cache.Misses || eng.Prepares != 7 || eng.CacheHits != 5 || eng.CacheMisses != 2 || eng.Replans != 0 {
		t.Errorf("engine %d prepares, %d hits, %d misses, %d re-plans; want one prepare per result-cache miss (%d): 7, 5, 2 and no re-plan",
			eng.Prepares, eng.CacheHits, eng.CacheMisses, eng.Replans, cache.Misses)
	}
	if cache.Hits+cache.Misses != int64(n) || cache.Misses != 7 || cache.Invalidated != 2 {
		t.Errorf("%d requests: result cache %d hits, %d misses, %d invalidated; want them to sum to %d with 7 misses, 2 of them invalidations",
			n, cache.Hits, cache.Misses, cache.Invalidated, n)
	}

	// A rejected shape is a prepare like any other and never reaches the
	// result cache; a text that does not parse is not a prepare at all.
	for i := 0; i < 3; i++ {
		if code, _ := serveInProcess(h, `{"query": "select photo_id from in_album"}`); code != http.StatusBadRequest {
			t.Fatalf("unbounded shape: status %d, want 400", code)
		}
	}
	if code, _ := serveInProcess(h, `{"query": "select from where"}`); code != http.StatusBadRequest {
		t.Fatalf("unparseable text: status %d, want 400", code)
	}
	eng2 := srv.Engine().Stats()
	if eng2.Prepares != eng.Prepares+3 || eng2.CacheMisses != eng.CacheMisses+1 || eng2.CacheHits != eng.CacheHits+2 {
		t.Errorf("three rejections moved the engine from %+v to %+v; want +3 prepares, +1 miss, +2 hits", eng, eng2)
	}
	if srv.CacheStats() != cache {
		t.Errorf("rejections moved the result cache: %+v -> %+v", cache, srv.CacheStats())
	}
}

// TestCachedErrorRetriedBehindTheMemo: a rejected text sits in the memo
// like any other, and its cached rejection is still retried once the
// schema version advances — after which the fast lane serves its answer
// without asking the engine: two prepares before the extension (a miss,
// then the cached rejection), one after it (the stale retry's build).
func TestCachedErrorRetriedBehindTheMemo(t *testing.T) {
	ls, srv, _ := newTestServer(t, engine.Options{}, Options{})
	h := srv.Handler()
	const body = `{"query": "select photo_id from tagging where tagger_id = ?", "args": ["f1"]}`
	for i := 0; i < 2; i++ {
		if code, raw := serveInProcess(h, body); code != http.StatusBadRequest {
			t.Fatalf("before the extension: status %d: %s", code, raw)
		}
	}
	if err := ls.ExtendAccess(schema.MustAccessConstraint("tagging", []string{"tagger_id"}, []string{"photo_id"}, 50)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		code, raw := serveInProcess(h, body)
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK {
			t.Fatalf("after the extension: status %d: %s", code, raw)
		}
		if env.Cached != (i == 1) || !strings.Contains(string(env.Result), `[["p1"],["p3"]]`) {
			t.Errorf("request %d after the extension: cached %v, result %s", i, env.Cached, env.Result)
		}
	}
	if st := srv.Engine().Stats(); st.StaleRetries != 1 || st.Prepares != 3 || st.CacheHits != 1 || st.CacheMisses != 2 {
		t.Errorf("stats %+v, want 3 prepares (1 hit, 2 misses) and 1 stale retry", st)
	}
}

// TestFastLaneNeverStaleUnderChurn hammers the fast lane with everything
// that can move under it at once: a two-entry plan cache (and memo)
// shared by five hot texts, so plans and texts are evicted constantly;
// ingest that advances
// the epoch and drifts the statistics, so plans are re-planned; and one
// ExtendAccess that turns a rejected text into an answerable one. Every
// 200 is replayed against the snapshot of the epoch it names, as in
// TestServedResponsesMatchDirectExecution: a memo or fast lane that
// outlived an eviction, a re-plan or an epoch would serve bytes that
// differ. How many re-plans the hammer sees depends on the scheduling, so
// a last step forces one: a cached plan hit after a batch that doubles
// its constraint's groups, asked with arguments whose answers are not
// cached, so that each ask reaches the plan cache. Run with -race.
func TestFastLaneNeverStaleUnderChurn(t *testing.T) {
	ls := serveScene(t)
	eng, err := engine.NewLive(ls, engine.Options{PlanCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Options{ResultCacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	pinned := sync.Map{} // epoch key -> *live.Snapshot
	pin := func() {
		s := ls.Snapshot()
		pinned.Store(s.EpochKey(), s)
	}
	pin()

	templates := []struct {
		query string
		args  func(r *rand.Rand) []any
	}{
		{`select photo_id from in_album where album_id = ?`, func(r *rand.Rand) []any { return []any{fmt.Sprintf("a%d", r.Intn(3))} }},
		{`select  photo_id  from in_album where album_id = ?`, func(r *rand.Rand) []any { return []any{fmt.Sprintf("a%d", r.Intn(3))} }},
		{`select friend_id from friends where user_id = ?`, func(r *rand.Rand) []any { return []any{fmt.Sprintf("u%d", r.Intn(3))} }},
		{`select t1.photo_id from in_album as t1, tagging as t3
			where t1.album_id = ? and t1.photo_id = t3.photo_id and t3.taggee_id = ?`,
			func(r *rand.Rand) []any { return []any{fmt.Sprintf("a%d", r.Intn(2)), "u0"} }},
		{`select tagger_id from tagging where photo_id = ? and taggee_id = ?`, func(r *rand.Rand) []any { return []any{fmt.Sprintf("p%d", 1+r.Intn(3)), "u0"} }},
		// Rejected until the writer extends the schema.
		{`select photo_id from tagging where tagger_id = ?`, func(r *rand.Rand) []any { return []any{"f1"} }},
	}
	const evolving = 5

	clients, perClient := 6, 400
	if testing.Short() {
		clients, perClient = 4, 150
	}

	// The one writer: every commit pinned; halfway, the extension. Writer
	// and clients keep step both ways — batch i waits until the clients
	// have sent their share of the requests, and a request waits for the
	// batch its share belongs to — so that the statistics drift under
	// cached plans however the goroutines are scheduled: requests run on
	// the client's goroutine, and on a loaded box clients that never block
	// would otherwise finish before the writer is a third of the way.
	batches := 240
	if testing.Short() {
		batches = 80
	}
	total := int64(clients * perClient)
	var (
		extended atomic.Bool
		sent     atomic.Int64
		written  atomic.Int64 // batches committed
		quit     atomic.Bool  // a client failed: nobody waits for the writer
	)
	clientsGone := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		defer written.Store(math.MaxInt64) // a failed writer holds no client back
		for i := 0; i < batches; i++ {
			for sent.Load() < int64(i)*total/int64(batches) {
				select {
				case <-clientsGone:
					writerDone <- nil
					return
				default:
					runtime.Gosched()
				}
			}
			// Friends fan out fast and every batch tags a new photo
			// (statistics drift under four of the five texts, re-plans);
			// albums cycle through a bounded set of photos.
			ops := []live.Op{
				live.Insert("in_album", strT(fmt.Sprintf("px%d", i%300), fmt.Sprintf("a%d", i%3))),
				live.Insert("friends", strT(fmt.Sprintf("u%d", i%3), fmt.Sprintf("g%d", i))),
				live.Insert("friends", strT(fmt.Sprintf("v%d", i), "f1")),
				live.Insert("tagging", strT(fmt.Sprintf("pt%d", i), fmt.Sprintf("t%d", i), "u0")),
			}
			if _, err := ls.Apply(ops); err != nil {
				writerDone <- err
				return
			}
			pin()
			if i == batches/2 {
				ac := schema.MustAccessConstraint("tagging", []string{"tagger_id"}, []string{"photo_id"}, 50)
				if err := ls.ExtendAccess(ac); err != nil {
					writerDone <- err
					return
				}
				pin()
				extended.Store(true)
			}
			written.Add(1)
		}
		writerDone <- nil
	}()

	type sample struct {
		template int
		args     []any
		epoch    string
		payload  string
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		all      []sample
		rejected int
		answered atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + c)))
			var out []sample
			refused := 0
			for i := 0; i < perClient; i++ {
				ti := r.Intn(len(templates))
				args := templates[ti].args(r)
				body, _ := json.Marshal(map[string]any{"query": templates[ti].query, "args": args})
				seq := sent.Add(1) - 1
				for written.Load() <= seq*int64(batches)/total && !quit.Load() {
					runtime.Gosched()
				}
				answerable := ti != evolving || extended.Load()
				code, raw := serveInProcess(h, string(body))
				if code == http.StatusBadRequest && ti == evolving && !answerable {
					refused++
					continue
				}
				var env envelope
				if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK {
					t.Errorf("client %d, template %d: status %d: %s", c, ti, code, raw)
					quit.Store(true)
					return
				}
				answered.Add(1)
				out = append(out, sample{template: ti, args: args, epoch: env.Epoch, payload: string(env.Result)})
			}
			mu.Lock()
			all, rejected = append(all, out...), rejected+refused
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(clientsGone)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	// The forced re-plan. Two asks leave the friends plan cached and
	// verified at this epoch; doubling the constraint's groups then moves
	// its group-count bucket, so the next ask's hit must re-plan. Each ask
	// names a user the hammer never asked about (the writer gave each v
	// user one friend), so no answer is cached and every ask prepares.
	const friendsT = 2
	asked := 0
	ask := func() {
		t.Helper()
		asked++
		args := []any{fmt.Sprintf("v%d", asked)}
		body, _ := json.Marshal(map[string]any{"query": templates[friendsT].query, "args": args})
		code, raw := serveInProcess(h, string(body))
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK {
			t.Fatalf("forced re-plan step: status %d: %s", code, raw)
		}
		answered.Add(1)
		all = append(all, sample{template: friendsT, args: args, epoch: env.Epoch, payload: string(env.Result)})
	}
	ask()
	ask()
	replans := eng.Stats().Replans
	card, _ := ls.ACCard(schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000).Key())
	ops := make([]live.Op, card.Groups)
	for i := range ops {
		ops[i] = live.Insert("friends", strT(fmt.Sprintf("w%d", i), "f1"))
	}
	if _, err := ls.Apply(ops); err != nil {
		t.Fatal(err)
	}
	pin()
	ask()
	if got := eng.Stats().Replans - replans; got != 1 {
		t.Errorf("a hit after the friends groups doubled (%d -> %d) re-planned %d times, want 1", card.Groups, 2*card.Groups, got)
	}

	// Counters first, before the replay prepares anything: one result-cache
	// verdict per answer; each prepare exactly one plan-cache hit or miss.
	// Every execution and every rejection prepared once. A hit prepared
	// only when its fast-lane probe missed and the worker's second look,
	// after a write, found the answer another request had cached meanwhile.
	st, cs := eng.Stats(), srv.CacheStats()
	if cs.Hits+cs.Misses != answered.Load() || cs.Invalidated > cs.Misses {
		t.Errorf("%d answers: result cache %d hits + %d misses, %d of them invalidations", answered.Load(), cs.Hits, cs.Misses, cs.Invalidated)
	}
	executed := cs.Misses + int64(rejected)
	if st.CacheHits+st.CacheMisses != st.Prepares || st.Prepares < executed || st.Prepares > executed+cs.Hits {
		t.Errorf("%d executions and rejections, %d result-cache hits: %d prepares, %d hits + %d misses",
			executed, cs.Hits, st.Prepares, st.CacheHits, st.CacheMisses)
	}
	if st.Evictions == 0 || st.Replans == 0 || cs.Hits == 0 || rejected == 0 {
		t.Errorf("the hammer missed a mechanism: %d evictions, %d re-plans, %d cache hits, %d rejections", st.Evictions, st.Replans, cs.Hits, rejected)
	}

	epochs := map[string]bool{}
	for i, smp := range all {
		v, ok := pinned.Load(smp.epoch)
		if !ok {
			t.Fatalf("sample %d claims unknown epoch %s", i, smp.epoch)
		}
		p, err := eng.Prepare(templates[smp.template].query)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]value.Value, len(smp.args))
		for j, a := range smp.args {
			vals[j] = value.Str(a.(string))
		}
		res, err := p.ExecOn(v.(*live.Snapshot), vals...)
		if err != nil {
			t.Fatalf("sample %d (template %d, epoch %s): %v", i, smp.template, smp.epoch, err)
		}
		want, err := marshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if smp.payload != string(want) {
			t.Fatalf("sample %d (template %d, args %v, epoch %s):\n served %s\n direct %s",
				i, smp.template, smp.args, smp.epoch, smp.payload, want)
		}
		epochs[smp.epoch] = true
	}
	if len(epochs) < 2 {
		t.Error("all responses saw one epoch; the writer did not overlap the clients")
	}
	t.Logf("verified %d responses over %d epochs: %d result-cache hits, %d plan evictions, %d re-plans, %d rejections before the extension",
		len(all), len(epochs), cs.Hits, st.Evictions, st.Replans, rejected)
}
