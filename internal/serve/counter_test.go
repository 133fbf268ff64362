package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/obs"
)

// unreadable is a request body whose first read fails.
type unreadable struct{}

func (unreadable) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// barrierBody is a request body whose first read marks wg done and waits
// until every other holder of wg has done the same.
type barrierBody struct {
	*strings.Reader
	wg   *sync.WaitGroup
	read bool
}

func (b *barrierBody) Read(p []byte) (int, error) {
	if !b.read {
		b.read = true
		b.wg.Done()
		b.wg.Wait()
	}
	return b.Reader.Read(p)
}

// serveBody sends a POST /query with body through h.
func serveBody(h http.Handler, body io.Reader) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", body))
	return rec.Code, rec.Body.Bytes()
}

// TestRequestCountersExactUnderConcurrency: k clients at once send cached
// hits, misses and bodies that cannot be read or decoded through the
// handler, and after they return /stats, CacheStats and the /metrics
// counters read exactly what was sent. The counters are striped and every
// request adds to its own decoder's stripe, so a count lost between
// stripes, or a stripe a sum skips, shows here. Each client has its own
// cached body, so which request hits and which misses is fixed: the first
// of each phase misses — in the second phase as an invalidation, after a
// write to the group every such body reads — and the rest hit.
//
// There are as many clients as stripes, and every client's first body
// waits, once read into, until all clients have begun to read theirs, so
// that all hold a decoder at once. The pool is emptied before, so those
// decoders are new and take consecutive stripes: every stripe is added
// to, and a sum that skips one comes out short.
func TestRequestCountersExactUnderConcurrency(t *testing.T) {
	const (
		hits    = 40 // per client and phase
		uniques = 10 // per client: a miss each
		friends = `select friend_id from friends where user_id = ?`
	)
	ls, srv, _ := newTestServer(t, engine.Options{}, Options{Obs: &obs.Observer{Metrics: obs.NewRegistry()}})
	h := srv.Handler()
	clients := len(srv.queries.stripes)
	runtime.GC() // twice: the pool keeps what it holds through one collection
	runtime.GC()
	var reading sync.WaitGroup
	reading.Add(clients)
	own := func(g int) string {
		return fmt.Sprintf(`{"query": %q, "args": ["a0"], "timeout_ms": %d}`, hitText, 1000+g)
	}
	ask := func(g int, body io.Reader, wantCached bool) {
		code, raw := serveBody(h, body)
		var env envelope
		if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK || env.Cached != wantCached {
			t.Errorf("client %d: status %d, want cached %v: %s", g, code, wantCached, raw)
		}
	}
	bad := func(g int) {
		r := httptest.NewRequest(http.MethodPost, "/query", unreadable{})
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if code, _ := serveInProcess(h, `{"query": `); w.Code != http.StatusBadRequest || code != http.StatusBadRequest {
			t.Errorf("client %d: unreadable body status %d, undecodable body status %d; want 400 and 400", g, w.Code, code)
		}
	}
	phase := func(work func(g int)) {
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(g)
			}()
		}
		wg.Wait()
	}

	phase(func(g int) {
		ask(g, &barrierBody{Reader: strings.NewReader(own(g)), wg: &reading}, false)
		for i := 0; i < uniques; i++ {
			ask(g, strings.NewReader(fmt.Sprintf(`{"query": %q, "args": ["u0"], "timeout_ms": %d}`, friends, 2000+g*uniques+i)), false)
			bad(g)
		}
		for i := 0; i < hits; i++ {
			ask(g, strings.NewReader(own(g)), true)
		}
	})
	// A photo of album a0 swapped for another: every own body's answer
	// moves, no group changes size, so nothing re-plans.
	if _, err := ls.Apply([]live.Op{
		live.Delete("in_album", strT("p2", "a0")),
		live.Insert("in_album", strT("p7", "a0")),
	}); err != nil {
		t.Fatal(err)
	}
	phase(func(g int) {
		ask(g, strings.NewReader(own(g)), false)
		for i := 0; i < hits; i++ {
			ask(g, strings.NewReader(own(g)), true)
		}
	})
	if t.Failed() {
		t.FailNow()
	}

	for i := range srv.queries.stripes {
		if srv.queries.stripes[i].n.Load() == 0 {
			t.Fatalf("stripe %d of %d was never added to: the clients no longer cover every stripe", i, clients)
		}
	}
	want := map[string]int64{
		"queries":     int64(clients * (2 + uniques*3 + 2*hits)),
		"hits":        int64(clients * 2 * hits),
		"misses":      int64(clients * (2 + uniques)),
		"invalidated": int64(clients),
	}
	check := func(source string, got map[string]int64) {
		t.Helper()
		for name, n := range got {
			if n != want[name] {
				t.Errorf("%s: %s = %d, want %d", source, name, n, want[name])
			}
		}
	}
	cs := srv.CacheStats()
	check("CacheStats", map[string]int64{"hits": cs.Hits, "misses": cs.Misses, "invalidated": cs.Invalidated})

	get := func(path string) string {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, w.Code)
		}
		return w.Body.String()
	}
	var st statsResponse
	if err := json.Unmarshal([]byte(get("/stats")), &st); err != nil {
		t.Fatal(err)
	}
	check("/stats", map[string]int64{
		"queries": st.Server.Queries, "hits": st.Cache.Hits, "misses": st.Cache.Misses, "invalidated": st.Cache.Invalidated,
	})

	metrics := map[string]int64{}
	for _, line := range strings.Split(get("/metrics"), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			metrics[name] = n
		}
	}
	check("/metrics", map[string]int64{
		"queries":     metrics["bcq_http_queries_total"],
		"hits":        metrics["bcq_result_cache_hits_total"],
		"misses":      metrics["bcq_result_cache_misses_total"],
		"invalidated": metrics["bcq_result_cache_invalidated_total"],
	})
}
