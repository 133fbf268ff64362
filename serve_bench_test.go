// Serving-layer benchmarks: end-to-end HTTP throughput of bqserve's
// /query path as the client count grows, and the result cache's hit rate
// when ingest churn keeps advancing the epoch without touching what the
// cached answers read.
//
//	go test -bench BenchmarkServe -benchtime 1x
//
// Headline metrics:
//
//	q/s       — served queries per second (throughput benchmark)
//	hit_pct   — result-cache hit rate under the given churn interval
//	ns/op, allocs/op — one cached answer in process (BenchmarkServe_CachedHit),
//	                   one cached answer after an unrelated write
//	                   (BenchmarkServe_HitAfterWrite), one read after a
//	                   write to what it reads (BenchmarkServe_Uncached)
package bcq

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"bcq/internal/datagen"
	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/serve"
)

// benchServer stands up the serving stack over the social dataset.
func benchServer(b *testing.B) (*live.Store, *serve.Server, *httptest.Server) {
	b.Helper()
	ds := datagen.Social()
	db := ds.MustBuild(1.0 / 16)
	ls, err := live.New(db, ds.Access, live.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.NewLive(ls, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Options{
		Workers: 16,
		Ingest: func(ops []live.Op) error {
			_, err := ls.Apply(ops)
			return err
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(hs.Close)
	return ls, srv, hs
}

func postQuery(b *testing.B, client *http.Client, url, body string) {
	b.Helper()
	resp, err := client.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServe_Throughput measures served queries per second as the
// number of concurrent HTTP clients grows over a fixed query mix (hot
// enough that the result cache carries most of the load).
func BenchmarkServe_Throughput(b *testing.B) {
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("clients-%d", clients), func(b *testing.B) {
			_, _, hs := benchServer(b)
			var seq atomic.Int64
			b.SetParallelism(clients)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := &http.Client{}
				for pb.Next() {
					n := seq.Add(1)
					body := fmt.Sprintf(`{"query": "select photo_id from in_album where album_id = ?", "args": [%d]}`, n%8)
					postQuery(b, client, hs.URL, body)
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "q/s")
		})
	}
}

// BenchmarkServe_HitRateUnderChurn interleaves ingest with the query
// stream: every `interval` queries one write batch commits, advancing
// the epoch. The writes insert friends, which the in_album reads never
// probe, so the answers stay cached: the reported hit rate stays the
// static one, short of a write whose group shares a version word with
// one a cached answer read.
func BenchmarkServe_HitRateUnderChurn(b *testing.B) {
	for _, interval := range []int{0, 16, 64} {
		name := "static"
		if interval > 0 {
			name = fmt.Sprintf("ingest-every-%d", interval)
		}
		b.Run(name, func(b *testing.B) {
			ls, srv, hs := benchServer(b)
			client := &http.Client{}
			base := srv.CacheStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if interval > 0 && i%interval == interval-1 {
					if _, err := ls.Apply([]live.Op{
						live.Insert("friends", valueTuple(int64(i%50), int64((i+1)%50))),
					}); err != nil {
						b.Fatal(err)
					}
				}
				body := fmt.Sprintf(`{"query": "select photo_id from in_album where album_id = ?", "args": [%d]}`, i%8)
				postQuery(b, client, hs.URL, body)
			}
			b.StopTimer()
			cs := srv.CacheStats()
			hits, misses := cs.Hits-base.Hits, cs.Misses-base.Misses
			if hits+misses > 0 {
				b.ReportMetric(100*float64(hits)/float64(hits+misses), "hit_pct")
			}
		})
	}
}

// nullWriter is the cheapest http.ResponseWriter there is, so that
// BenchmarkServe_CachedHit measures the handler and not the recorder.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(int)             {}
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkServe_CachedHit is the fast lane's guardrail: one /query whose
// answer is cached, sent in process to Handler().ServeHTTP with no socket
// and no client, so ns/op and allocs/op are the handler's own. What is
// left is decoding the request and one result-cache lookup; a parse, a
// plan lookup, a statistics snapshot or a worker hand-off creeping back
// in shows as a multiple.
func BenchmarkServe_CachedHit(b *testing.B) {
	_, srv, _ := benchServer(b)
	h := srv.Handler()
	const body = `{"query": "select photo_id from in_album where album_id = ?", "args": [3]}`
	var rd strings.Reader
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	w := &nullWriter{h: http.Header{}}
	send := func() {
		rd.Reset(body)
		req.Body = io.NopCloser(&rd)
		h.ServeHTTP(w, req)
	}
	send() // executes and caches
	base := srv.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if cs := srv.CacheStats(); cs.Hits-base.Hits != int64(b.N) || cs.Misses != base.Misses {
		b.Fatalf("%d requests: %d hits, %d misses; every one must be a cached answer", b.N, cs.Hits-base.Hits, cs.Misses-base.Misses)
	}
}

// BenchmarkServe_Uncached is the miss path's guardrail: the same /query
// in process, but with one /ingest sent (untimed) before every read that
// rewrites the album group the read probes, so each read finds its
// cached answer's read set moved — it misses the result cache, re-checks
// its plan's statistics and executes, recording a new read set. ns/op and
// allocs/op are the read's own: admission, the drift check, the bounded
// execution and the response. A per-request goroutine or a statistics
// snapshot creeping back in shows here.
func BenchmarkServe_Uncached(b *testing.B) {
	// The write alternates an insert and a delete of one photo of album 3:
	// the data stays the same size, every write moves the epoch, and every
	// write touches what the query reads.
	benchAfterWrite(b, [2]string{
		`{"ops": [{"op": "insert", "rel": "in_album", "tuple": [999999, 3]}]}`,
		`{"ops": [{"op": "delete", "rel": "in_album", "tuple": [999999, 3]}]}`,
	}, false)
}

// BenchmarkServe_HitAfterWrite is the invalidation guardrail: the same
// /query in process after an untimed /ingest that the query does not
// read, so each read finds a new epoch and its answer still cached — a
// hit that checks the answer's version words. ns/op and allocs/op are
// BenchmarkServe_CachedHit's plus that check; a write that orphans
// answers it did not touch fails the run.
func BenchmarkServe_HitAfterWrite(b *testing.B) {
	// The write alternates an insert and a delete of one friends tuple.
	benchAfterWrite(b, [2]string{
		`{"ops": [{"op": "insert", "rel": "friends", "tuple": [0, 999999]}]}`,
		`{"ops": [{"op": "delete", "rel": "friends", "tuple": [0, 999999]}]}`,
	}, true)
}

// benchAfterWrite times one /query of album 3 after each of b.N untimed
// writes, alternating the two given, and fails unless every write
// committed and every read was a hit (hits) or an execution (!hits).
func benchAfterWrite(b *testing.B, writes [2]string, hits bool) {
	ls, srv, _ := benchServer(b)
	h := srv.Handler()
	const query = `{"query": "select photo_id from in_album where album_id = ?", "args": [3]}`
	var rd strings.Reader
	read := httptest.NewRequest(http.MethodPost, "/query", nil)
	write := httptest.NewRequest(http.MethodPost, "/ingest", nil)
	w := &nullWriter{h: http.Header{}}
	send := func(req *http.Request, body string) {
		rd.Reset(body)
		req.Body = io.NopCloser(&rd)
		h.ServeHTTP(w, req)
	}
	send(read, query) // plans and caches
	base, epoch := srv.CacheStats(), ls.Epoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		send(write, writes[i%2])
		b.StartTimer()
		send(read, query)
	}
	b.StopTimer()
	if got := ls.Epoch() - epoch; got != uint64(b.N) {
		b.Fatalf("%d writes moved the epoch %d times; every one must commit", b.N, got)
	}
	cs := srv.CacheStats()
	hit, miss := cs.Hits-base.Hits, cs.Misses-base.Misses
	if hits && (hit != int64(b.N) || miss != 0) {
		b.Fatalf("%d requests: %d hits, %d misses; every one must be a cached answer", b.N, hit, miss)
	}
	if !hits && (miss != int64(b.N) || hit != 0) {
		b.Fatalf("%d requests: %d hits, %d misses; every one must execute", b.N, hit, miss)
	}
}

func valueTuple(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Int(v)
	}
	return t
}
