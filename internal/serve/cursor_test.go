package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"bcq/internal/engine"
	"bcq/internal/exec"
	"bcq/internal/live"
	"bcq/internal/value"
)

// pageEnvelope mirrors the paged /query response.
type pageEnvelope struct {
	Result struct {
		Cols   []string   `json:"cols"`
		Tuples [][]string `json:"tuples"`
		Stats  struct {
			IndexLookups  int64 `json:"index_lookups"`
			TuplesFetched int64 `json:"tuples_fetched"`
			TuplesScanned int64 `json:"tuples_scanned"`
		} `json:"stats"`
		DQSize int64 `json:"dq_size"`
	} `json:"result"`
	Cached     bool   `json:"cached"`
	Epoch      string `json:"epoch"`
	NextCursor string `json:"next_cursor"`
	Complete   bool   `json:"complete"`
	Error      string `json:"error"`
}

func pageOnce(t testing.TB, base, body string) (int, pageEnvelope) {
	t.Helper()
	code, raw := post(t, base+"/query", body)
	var env pageEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("undecodable paged response %s: %v", raw, err)
	}
	return code, env
}

const albumQueryBody = `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`

// TestPagedQueryStreamsToExhaustion pages through a 2-answer query one
// tuple at a time: every page carries one answer and a fresh cursor
// until the scan completes, and the union of pages is the full answer.
func TestPagedQueryStreamsToExhaustion(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{})

	code, env := pageOnce(t, hs.URL, `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 1}`)
	if code != http.StatusOK || env.Error != "" {
		t.Fatalf("page 1: status %d, error %q", code, env.Error)
	}
	if env.Cached {
		t.Error("paged response claimed cached")
	}
	var got []string
	pages := 0
	for {
		pages++
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
		for _, tu := range env.Result.Tuples {
			got = append(got, tu[0])
		}
		if env.Complete {
			if env.NextCursor != "" {
				t.Errorf("complete page still carries a cursor %q", env.NextCursor)
			}
			break
		}
		if env.NextCursor == "" {
			t.Fatal("incomplete page without a continuation cursor")
		}
		code, env = pageOnce(t, hs.URL, fmt.Sprintf(`{"cursor": %q}`, env.NextCursor))
		if code != http.StatusOK || env.Error != "" {
			t.Fatalf("page %d: status %d, error %q", pages+1, code, env.Error)
		}
	}
	if fmt.Sprint(got) != "[p1 p2]" {
		t.Errorf("paged union = %v, want [p1 p2]", got)
	}
	if pages < 2 {
		t.Errorf("limit 1 over 2 answers served in %d page(s)", pages)
	}
}

// TestPagedQueryBypassesResultCache is the regression test for partial
// answers poisoning the cache: a paged (limited) request must neither
// read from nor write to the result cache, so a later unlimited request
// at the same epoch gets the full answer.
func TestPagedQueryBypassesResultCache(t *testing.T) {
	_, srv, hs := newTestServer(t, engine.Options{}, Options{})

	// A limited page first: must not create a cache entry under the
	// full-query key.
	code, env := pageOnce(t, hs.URL, `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 1}`)
	if code != http.StatusOK || len(env.Result.Tuples) != 1 {
		t.Fatalf("paged request: status %d, %d tuples", code, len(env.Result.Tuples))
	}
	if cs := srv.CacheStats(); cs.Entries != 0 || cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("paged request touched the result cache: %+v", cs)
	}

	// The unlimited request must return the full answer, not the page.
	code, full := queryOnce(t, hs.URL, albumQueryBody)
	if code != http.StatusOK {
		t.Fatalf("full query: status %d, %s", code, full.Error)
	}
	if full.Cached {
		t.Error("full query after a paged request reported cached — page leaked into the cache")
	}
	var payload struct {
		Tuples [][]string `json:"tuples"`
	}
	if err := json.Unmarshal(full.Result, &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Tuples) != 2 {
		t.Fatalf("full query after paged request returned %d tuples, want 2", len(payload.Tuples))
	}

	// And with a warm cache, a paged request must not serve (or evict)
	// the cached full answer.
	if _, again := queryOnce(t, hs.URL, albumQueryBody); !again.Cached {
		t.Fatal("warm-up did not hit the cache")
	}
	if _, env := pageOnce(t, hs.URL, `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 1}`); env.Cached || len(env.Result.Tuples) != 1 {
		t.Fatalf("paged request with warm cache: cached=%v tuples=%d", env.Cached, len(env.Result.Tuples))
	}
	if code, again := queryOnce(t, hs.URL, albumQueryBody); code != http.StatusOK || !again.Cached {
		t.Errorf("cached full answer lost after a paged request")
	}
}

// TestCursorPinsEpochAcrossIngest: pages of one cursor keep reading the
// snapshot the scan opened on, while new queries see the post-ingest
// epoch.
func TestCursorPinsEpochAcrossIngest(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{})

	code, page1 := pageOnce(t, hs.URL, `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 1}`)
	if code != http.StatusOK || page1.Complete {
		t.Fatalf("page 1: status %d complete %v", code, page1.Complete)
	}

	// Ingest lands a new photo into the very album being paged.
	if code, raw := post(t, hs.URL+"/ingest",
		`{"ops": [{"op": "insert", "rel": "in_album", "tuple": ["p0new", "a0"]}]}`); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, raw)
	}

	code, fresh := queryOnce(t, hs.URL, albumQueryBody)
	if code != http.StatusOK {
		t.Fatal(fresh.Error)
	}
	if fresh.Epoch == page1.Epoch {
		t.Fatal("epoch did not advance across ingest")
	}
	var freshPayload struct {
		Tuples [][]string `json:"tuples"`
	}
	if err := json.Unmarshal(fresh.Result, &freshPayload); err != nil {
		t.Fatal(err)
	}
	if len(freshPayload.Tuples) != 3 {
		t.Fatalf("post-ingest full answer has %d tuples, want 3", len(freshPayload.Tuples))
	}

	// The cursor's remaining pages still read the pre-ingest snapshot.
	got := []string{page1.Result.Tuples[0][0]}
	env := page1
	for !env.Complete {
		code, env = pageOnce(t, hs.URL, fmt.Sprintf(`{"cursor": %q}`, env.NextCursor))
		if code != http.StatusOK || env.Error != "" {
			t.Fatalf("continuation: status %d error %q", code, env.Error)
		}
		if env.Epoch != page1.Epoch {
			t.Fatalf("continuation epoch %q differs from the scan's pinned epoch %q", env.Epoch, page1.Epoch)
		}
		for _, tu := range env.Result.Tuples {
			got = append(got, tu[0])
		}
	}
	if fmt.Sprint(got) != "[p1 p2]" {
		t.Errorf("pinned-snapshot pages = %v, want [p1 p2] (pre-ingest answer)", got)
	}
}

// TestCursorTokensSingleUseAndExpiring: a claimed token answers 410 on
// replay, an unknown token answers 410, and an idle cursor past its TTL
// answers 410.
func TestCursorTokensSingleUseAndExpiring(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{CursorTTL: 50 * time.Millisecond})

	code, _ := post(t, hs.URL+"/query", `{"cursor": "deadbeef"}`)
	if code != http.StatusGone {
		t.Errorf("unknown cursor: status %d, want 410", code)
	}

	_, page1 := pageOnce(t, hs.URL, `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 1}`)
	if page1.NextCursor == "" {
		t.Fatal("no continuation cursor")
	}
	code, env := pageOnce(t, hs.URL, fmt.Sprintf(`{"cursor": %q}`, page1.NextCursor))
	if code != http.StatusOK {
		t.Fatalf("first continuation: status %d error %q", code, env.Error)
	}
	// Replaying the claimed token must fail even though the scan went on.
	if code, _ := post(t, hs.URL+"/query", fmt.Sprintf(`{"cursor": %q}`, page1.NextCursor)); code != http.StatusGone {
		t.Errorf("replayed cursor: status %d, want 410", code)
	}

	// Expiry: open a fresh scan, let its cursor idle past the TTL.
	_, idle := pageOnce(t, hs.URL, `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": 1}`)
	if idle.NextCursor == "" {
		t.Fatal("no continuation cursor")
	}
	time.Sleep(80 * time.Millisecond)
	if code, _ := post(t, hs.URL+"/query", fmt.Sprintf(`{"cursor": %q}`, idle.NextCursor)); code != http.StatusGone {
		t.Errorf("expired cursor: status %d, want 410", code)
	}
}

// TestPagedRequestValidation: malformed paged requests are rejected up
// front.
func TestPagedRequestValidation(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{})

	if code, _ := post(t, hs.URL+"/query", `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "limit": -1}`); code != http.StatusBadRequest {
		t.Errorf("negative limit: status %d, want 400", code)
	}
	if code, _ := post(t, hs.URL+"/query", `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"], "cursor": "abc"}`); code != http.StatusBadRequest {
		t.Errorf("cursor with query text: status %d, want 400", code)
	}
}

// TestCursorOrderStaysBounded: a scan claims its token on every page, so
// the registry's eviction order must shed claimed tokens as it goes — it
// may not keep one per page ever served.
func TestCursorOrderStaysBounded(t *testing.T) {
	reg := newCursorRegistry(8, time.Minute)
	open := &cursorState{stream: exec.EmptyStream(nil)}
	if _, err := reg.put(open); err != nil { // one scan stays open throughout
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		tok, err := reg.put(&cursorState{stream: exec.EmptyStream(nil)})
		if err != nil {
			t.Fatal(err)
		}
		if reg.claim(tok) == nil {
			t.Fatalf("page %d: fresh token not claimable", i)
		}
	}
	if n := len(reg.order); n > 64 {
		t.Fatalf("eviction order holds %d tokens for %d open cursors", n, reg.open())
	}
	if reg.open() != 1 || reg.evicted.Load() != 0 {
		t.Fatalf("%d cursors open, %d evicted; want the one open scan untouched", reg.open(), reg.evicted.Load())
	}
	// Capacity eviction still takes the oldest open cursor first.
	for i := 0; i < 8; i++ {
		if _, err := reg.put(&cursorState{stream: exec.EmptyStream(nil)}); err != nil {
			t.Fatal(err)
		}
	}
	if reg.open() != 8 || reg.evicted.Load() != 1 {
		t.Fatalf("%d cursors open, %d evicted; want 8 and 1", reg.open(), reg.evicted.Load())
	}
}

// cancelOnFlush is a response writer whose first Flush — the one a page
// makes after its first pageFlushEvery rows — cancels the request's
// context, the way a deadline firing between two rows would.
type cancelOnFlush struct {
	*httptest.ResponseRecorder
	cancel  context.CancelFunc
	flushes int
}

func (w *cancelOnFlush) Flush() {
	if w.flushes++; w.flushes == 1 {
		w.cancel()
	}
	w.ResponseRecorder.Flush()
}

// TestMidPageDeadlineResumesFromCursor takes the deadline in the middle of
// a page, with no clock: the page closes after the rows it flushed, with
// complete:false, the timeout message and a cursor; the cursor's page
// holds exactly the remaining answers; and the two pages together are the
// drained answer.
func TestMidPageDeadlineResumesFromCursor(t *testing.T) {
	db, acc := serveData(t)
	const photos = 3 * pageFlushEvery
	for i := range photos {
		if err := db.Insert("in_album", strT(fmt.Sprintf("q%03d", i), "big")); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := live.New(db, acc, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewLive(ls, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const query = "select photo_id from in_album where album_id = ?"
	page := func(ctx context.Context, cancel context.CancelFunc, body string) pageEnvelope {
		t.Helper()
		w := &cancelOnFlush{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
		r := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)).WithContext(ctx)
		srv.Handler().ServeHTTP(w, r)
		var env pageEnvelope
		if err := json.Unmarshal(w.Body.Bytes(), &env); w.Code != http.StatusOK || err != nil {
			t.Fatalf("status %d, undecodable page %s: %v", w.Code, w.Body.Bytes(), err)
		}
		return env
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first := page(ctx, cancel, fmt.Sprintf(`{"query": %q, "args": ["big"], "limit": %d}`, query, 2*photos))
	if first.Complete || first.NextCursor == "" || first.Error != "deadline exceeded mid-page; resume with next_cursor" {
		t.Fatalf("page cut by its deadline: complete %v, cursor %q, error %q", first.Complete, first.NextCursor, first.Error)
	}
	if len(first.Result.Tuples) != pageFlushEvery {
		t.Fatalf("page cut after its first flush holds %d rows, want %d", len(first.Result.Tuples), pageFlushEvery)
	}
	if n := srv.timeouts.Load(); n != 1 {
		t.Errorf("%d timeouts counted, want 1", n)
	}

	rest := page(context.Background(), func() {}, fmt.Sprintf(`{"cursor": %q}`, first.NextCursor))
	if !rest.Complete || rest.NextCursor != "" || rest.Error != "" {
		t.Fatalf("resumed page: complete %v, cursor %q, error %q", rest.Complete, rest.NextCursor, rest.Error)
	}
	if len(rest.Result.Tuples) != photos-pageFlushEvery {
		t.Fatalf("resumed page holds %d rows, want the %d remaining", len(rest.Result.Tuples), photos-pageFlushEvery)
	}

	p, err := eng.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.ExecStreamOn(eng.View(), exec.StreamOptions{}, value.Str("big"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Drain()
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, tu := range res.Tuples {
		want = append(want, tu[0].AsString())
	}
	for _, env := range []pageEnvelope{first, rest} {
		for _, tu := range env.Result.Tuples {
			got = append(got, tu[0])
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("the two pages hold %d answers, the drain %d:\n pages %v\n drain %v", len(got), len(want), got, want)
	}
}
