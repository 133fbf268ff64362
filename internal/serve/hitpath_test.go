package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bcq/internal/engine"
	"bcq/internal/value"
)

const hitText = `select photo_id from in_album where album_id = ?`

// warmHit answers hitText for a0 once, so that the result cache holds the
// answer.
func warmHit(t *testing.T, h http.Handler) []value.Value {
	t.Helper()
	if code, raw := serveInProcess(h, fmt.Sprintf(`{"query": %q, "args": ["a0"]}`, hitText)); code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", code, raw)
	}
	return []value.Value{value.Str("a0")}
}

// TestResultCacheHitAllocatesNothing: finding a cached answer on a live
// store — the view pin, the key built in the request's buffer and the map
// read — allocates nothing.
func TestResultCacheHitAllocatesNothing(t *testing.T) {
	_, srv, _ := newTestServer(t, engine.Options{}, Options{})
	args := warmHit(t, srv.Handler())
	var kb keyBuf
	if n := testing.AllocsPerRun(200, func() {
		if lk := srv.lookup(hitText, args, &kb); lk.body == nil {
			t.Fatal("the warmed answer is not cached")
		}
	}); n != 0 {
		t.Errorf("a result-cache hit allocates %v times to find its entry, want 0", n)
	}
}

// TestUntracedHitIsTheEnvelope: an untraced hit writes exactly
// appendEnvelope of the cached payload, asks the engine nothing, and its
// result field is byte for byte that of the same request sent traced —
// whose trace ID, set through Header.Set, is adopted and echoed.
func TestUntracedHitIsTheEnvelope(t *testing.T) {
	_, srv, _ := newTestServer(t, engine.Options{}, Options{})
	h := srv.Handler()
	args := warmHit(t, h)
	var kb keyBuf
	lk := srv.lookup(hitText, args, &kb)
	if lk.body == nil {
		t.Fatal("the warmed answer is not cached")
	}
	body := fmt.Sprintf(`{"query": %q, "args": ["a0"]}`, hitText)

	before := srv.Engine().Stats()
	code, got := serveInProcess(h, body)
	if code != http.StatusOK {
		t.Fatalf("untraced hit: status %d: %s", code, got)
	}
	if want := appendEnvelope(nil, lk.body, true, epochOf(lk.view), "", nil); !bytes.Equal(got, want) {
		t.Fatalf("untraced hit wrote\n %s\nwant\n %s", got, want)
	}
	if st := srv.Engine().Stats(); st != before {
		t.Errorf("an untraced hit moved the engine: %+v -> %+v", before, st)
	}

	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
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

// TestTraceForReadsTheCanonicalHeader: the trace header is found without
// canonicalising its name per request, so a request without it costs no
// allocation to be told it is untraced.
func TestTraceForReadsTheCanonicalHeader(t *testing.T) {
	_, srv, _ := newTestServer(t, engine.Options{}, Options{})
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	if n := testing.AllocsPerRun(100, func() {
		if srv.traceFor(req, queryRequest{}) != nil {
			t.Fatal("a request without the header was traced")
		}
	}); n != 0 {
		t.Errorf("traceFor without the header allocates %v times, want 0", n)
	}
	req.Header.Set("X-BQ-Trace-Id", "set-by-client")
	if tr := srv.traceFor(req, queryRequest{}); tr == nil || tr.ID() != "set-by-client" {
		t.Errorf("traceFor did not adopt the header set by Header.Set: %v", tr)
	}
}

// TestLongTextAnsweredNotCached: a text past maxCachedText is answered
// every time, and never takes an entry of the result cache.
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
			t.Errorf("request %d of a %d-byte text was answered from the cache", i, len(long))
		}
	}
	if after := srv.CacheStats(); after.Entries != before.Entries || after.Hits != before.Hits {
		t.Errorf("a %d-byte text moved the result cache: %+v -> %+v", len(long), before, after)
	}
}

// fuzzArgs draws an argument vector from fuzz input: kinds&3 arguments,
// each an integer, the string or null by two further bits of kinds.
func fuzzArgs(kinds uint8, s string, n int64) []value.Value {
	args := make([]value.Value, kinds&3)
	for j := range args {
		switch kinds >> (2 + 2*j) & 3 {
		case 0:
			args[j] = value.Int(n + int64(j))
		case 1:
			args[j] = value.Str(s)
		default:
			args[j] = value.Null
		}
	}
	return args
}

// FuzzResultKey: two requests share a result-cache key exactly when they
// carry the same text and the same arguments — whatever NUL bytes the
// texts hold and whatever the arguments encode to. A failing pair lands in
// testdata/fuzz/FuzzResultKey/:
//
//	go test -run '^$' -fuzz '^FuzzResultKey$' -fuzztime 20s ./internal/serve/
func FuzzResultKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, text1 string, kinds1 uint8, s1 string, n1 int64, text2 string, kinds2 uint8, s2 string, n2 int64) {
		args1, args2 := fuzzArgs(kinds1, s1, n1), fuzzArgs(kinds2, s2, n2)
		k1 := appendKey([]byte("kept"), text1, args1)[4:]
		k2 := appendKey(nil, text2, args2)
		same := text1 == text2 && value.Tuple(args1).Equal(args2)
		if bytes.Equal(k1, k2) != same {
			t.Fatalf("(%q, %v) and (%q, %v): keys equal %v, requests equal %v", text1, args1, text2, args2, !same, same)
		}
	})
}
