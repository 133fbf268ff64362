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
//
// TestServeBenchEmit counts the last three's allocations per request,
// a cached answer's on a two-shard store, and a read after a write to
// what it reads and a one-op /ingest on a live and on a one-shard store,
// and, when SERVE_BENCH_JSON names a path, writes them there; CI
// compares the file against bench/BENCH_serve.json (tools/benchcmp).
package bcq

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"bcq/internal/datagen"
	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/serve"
	"bcq/internal/shard"
)

// benchServer stands up the serving stack over the social dataset.
func benchServer(b testing.TB) (*live.Store, *serve.Server, *httptest.Server) {
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

// shardedBenchServer is benchServer's serving stack on an in-memory
// sharded store of the given shard count, without a socket.
func shardedBenchServer(tb testing.TB, shards int) (*shard.Store, *serve.Server) {
	tb.Helper()
	ds := datagen.Social()
	ss, err := shard.New(ds.MustBuild(1.0/16), ds.Access, shard.Options{Shards: shards})
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := engine.NewSharded(ss, engine.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := serve.New(eng, serve.Options{Workers: 16, Ingest: ss.Apply})
	if err != nil {
		tb.Fatal(err)
	}
	return ss, srv
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

// reusedBody is a request body re-armed in place, so that sending a
// request again allocates nothing of its own and allocs/op is the
// handler's.
type reusedBody struct{ strings.Reader }

func (*reusedBody) Close() error { return nil }

// inProcess sends requests to a handler without a socket or a client,
// through one reused request per endpoint.
type inProcess struct {
	h           http.Handler
	query, post *http.Request
	body        reusedBody
	w           nullWriter
}

func newInProcess(h http.Handler) *inProcess {
	return &inProcess{
		h:     h,
		query: httptest.NewRequest(http.MethodPost, "/query", nil),
		post:  httptest.NewRequest(http.MethodPost, "/ingest", nil),
		w:     nullWriter{h: http.Header{}},
	}
}

func (p *inProcess) send(req *http.Request, body string) {
	p.body.Reset(body)
	req.Body = &p.body
	p.h.ServeHTTP(&p.w, req)
}

// albumQuery is the /query of every in-process guardrail: album 3's
// photos, one fetch step.
const albumQuery = `{"query": "select photo_id from in_album where album_id = ?", "args": [3]}`

// The write pairs of the after-write guardrails. unrelatedWrites
// alternate an insert and a delete of one friends tuple, which albumQuery
// never reads; readWrites alternate an insert and a delete of one photo
// of album 3: the data stays the same size, every write moves the epoch,
// and every write touches what the query reads.
var (
	unrelatedWrites = []string{
		`{"ops": [{"op": "insert", "rel": "friends", "tuple": [0, 999999]}]}`,
		`{"ops": [{"op": "delete", "rel": "friends", "tuple": [0, 999999]}]}`,
	}
	readWrites = []string{
		`{"ops": [{"op": "insert", "rel": "in_album", "tuple": [999999, 3]}]}`,
		`{"ops": [{"op": "delete", "rel": "in_album", "tuple": [999999, 3]}]}`,
	}
)

// guardrail is one in-process request path: before (nil for none) runs
// untimed ahead of each op, and check fails unless n ops took the path
// they are meant to.
type guardrail struct {
	before, op func(i int)
	check      func(tb testing.TB, n int)
}

// newGuardrail is albumQuery, answered once before, sent after each of
// the given writes in turn (after none when there are none): every read
// a hit (hits) or an execution (!hits), and every write committed.
func newGuardrail(tb testing.TB, writes []string, hits bool) guardrail {
	ls, srv, _ := benchServer(tb)
	return guardrailOn(srv, ls.Epoch, writes, hits)
}

// guardrailOn is newGuardrail on a given server, whose store's data
// version epoch reads.
func guardrailOn(srv *serve.Server, epochOf func() uint64, writes []string, hits bool) guardrail {
	p := newInProcess(srv.Handler())
	p.send(p.query, albumQuery) // plans and caches
	p.send(p.query, albumQuery) // a hit: sizes the pooled buffer for the envelope
	base, epoch := srv.CacheStats(), epochOf()
	g := guardrail{
		op: func(int) { p.send(p.query, albumQuery) },
		check: func(tb testing.TB, n int) {
			if got, want := epochOf()-epoch, uint64(min(len(writes), 1)*n); got != want {
				tb.Fatalf("%d writes moved the epoch %d times; every one must commit", want, got)
			}
			cs := srv.CacheStats()
			hit, miss := cs.Hits-base.Hits, cs.Misses-base.Misses
			if hits && (hit != int64(n) || miss != 0) {
				tb.Fatalf("%d requests: %d hits, %d misses; every one must be a cached answer", n, hit, miss)
			}
			if !hits && (miss != int64(n) || hit != 0) {
				tb.Fatalf("%d requests: %d hits, %d misses; every one must execute", n, hit, miss)
			}
		},
	}
	if len(writes) > 0 {
		g.before = func(i int) { p.send(p.post, writes[i%len(writes)]) }
	}
	return g
}

// ingestGuardrail is one /ingest on a given server, of the given one-op
// writes in turn, whose store's data version epoch reads: every write
// commits.
func ingestGuardrail(srv *serve.Server, epochOf func() uint64, writes []string) guardrail {
	p := newInProcess(srv.Handler())
	for _, w := range writes { // fills the handler's pools
		p.send(p.post, w)
	}
	epoch := epochOf()
	return guardrail{
		op: func(i int) { p.send(p.post, writes[i%len(writes)]) },
		check: func(tb testing.TB, n int) {
			if got := epochOf() - epoch; got != uint64(n) {
				tb.Fatalf("%d writes moved the epoch %d times; every one must commit", n, got)
			}
		},
	}
}

// bench times g's op b.N times, its before untimed.
func (g guardrail) bench(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.before != nil {
			b.StopTimer()
			g.before(i)
			b.StartTimer()
		}
		g.op(i)
	}
	b.StopTimer()
	g.check(b, b.N)
}

// BenchmarkServe_CachedHit is the fast lane's guardrail: one /query whose
// answer is cached, sent in process to Handler().ServeHTTP with no socket
// and no client, so ns/op and allocs/op are the handler's own. What is
// left is reading the body and one result-cache probe with its bytes: no
// decoding, no engine. Decoding, a parse, a plan lookup, a statistics
// snapshot or a worker hand-off creeping back in shows as a multiple.
func BenchmarkServe_CachedHit(b *testing.B) { newGuardrail(b, nil, true).bench(b) }

// BenchmarkServe_CachedHitParallel is BenchmarkServe_CachedHit from every
// processor at once (b.RunParallel), each goroutine with its own request
// and writer: the lookups share the result cache and nothing else, so a
// lock or a shared store on the hit path shows as ns/op that grows with
// -cpu. Every request must be a hit that allocates nothing; its time is
// reported, not asserted.
func BenchmarkServe_CachedHitParallel(b *testing.B) {
	_, srv, _ := benchServer(b)
	h := srv.Handler()
	warm := newInProcess(h)
	warm.send(warm.query, albumQuery) // plans and caches
	base := srv.CacheStats()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		p := newInProcess(h)
		for pb.Next() {
			p.send(p.query, albumQuery)
		}
	})
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
func BenchmarkServe_Uncached(b *testing.B) { newGuardrail(b, readWrites, false).bench(b) }

// BenchmarkServe_HitAfterWrite is the invalidation guardrail: the same
// /query in process after an untimed /ingest that the query does not
// read, so each read finds a new epoch and its answer still cached — a
// hit that checks the answer's version words. ns/op and allocs/op are
// BenchmarkServe_CachedHit's plus that check; a write that orphans
// answers it did not touch fails the run.
func BenchmarkServe_HitAfterWrite(b *testing.B) {
	newGuardrail(b, unrelatedWrites, true).bench(b)
}

// perOp runs g's op n times, its before outside the count, and returns
// the objects and bytes one op allocates: counts, not times, measured as
// testing.AllocsPerRun measures, on one processor after one op uncounted
// (which fills that processor's pools).
func (g guardrail) perOp(tb testing.TB, n int) (allocs, bytes int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	var mallocs, total uint64
	for i := 0; i <= n; i++ {
		if g.before != nil {
			g.before(i)
		}
		runtime.ReadMemStats(&m0)
		g.op(i)
		runtime.ReadMemStats(&m1)
		if i > 0 {
			mallocs += m1.Mallocs - m0.Mallocs
			total += m1.TotalAlloc - m0.TotalAlloc
		}
	}
	g.check(tb, n+1)
	return int64(mallocs / uint64(n)), int64(total / uint64(n))
}

// TestServeBenchEmit measures the three in-process guardrails' allocations
// per request — a cached answer, a cached answer after an unrelated write,
// a read after a write to what it reads — and a cached answer's on a
// two-shard store, and fails when a cached answer allocates at all. It
// also holds a one-shard store to the live store it replaces: a read
// after a write to what it reads (one_shard_uncached) allocates no more
// than uncached, and a one-op /ingest (one_shard_ingest) no more than on
// the live store (ingest) plus the two objects of the cut it publishes,
// its View and its shard slice. With SERVE_BENCH_JSON set the counts are
// written there (BENCH_serve.json in CI, compared against
// bench/BENCH_serve.json by tools/benchcmp). Clock-free: nothing here is
// a time.
func TestServeBenchEmit(t *testing.T) {
	const runs = 500
	ss, sharded := shardedBenchServer(t, 2)
	oneShard := func(writes []string, hits bool) guardrail {
		ss, srv := shardedBenchServer(t, 1)
		return guardrailOn(srv, func() uint64 { return ss.View().Epoch() }, writes, hits)
	}
	oneShardIngest := func() guardrail {
		ss, srv := shardedBenchServer(t, 1)
		return ingestGuardrail(srv, func() uint64 { return ss.View().Epoch() }, unrelatedWrites)
	}
	ls, srv, _ := benchServer(t)
	doc := map[string]map[string]int64{}
	for _, c := range []struct {
		name string
		g    guardrail
	}{
		{"cached_hit", newGuardrail(t, nil, true)},
		{"hit_after_write", newGuardrail(t, unrelatedWrites, true)},
		{"uncached", newGuardrail(t, readWrites, false)},
		{"sharded_cached_hit", guardrailOn(sharded, func() uint64 { return ss.View().Epoch() }, nil, true)},
		{"one_shard_uncached", oneShard(readWrites, false)},
		{"ingest", ingestGuardrail(srv, ls.Epoch, unrelatedWrites)},
		{"one_shard_ingest", oneShardIngest()},
	} {
		allocs, bytes := c.g.perOp(t, runs)
		doc[c.name] = map[string]int64{"op_allocs": allocs, "op_bytes": bytes}
		t.Logf("%s: %d allocs/op, %d B/op", c.name, allocs, bytes)
	}
	for _, name := range []string{"cached_hit", "hit_after_write", "sharded_cached_hit"} {
		if n := doc[name]["op_allocs"]; n != 0 {
			t.Errorf("%s allocates %d objects per request, want 0", name, n)
		}
	}
	if got, live := doc["one_shard_uncached"]["op_allocs"], doc["uncached"]["op_allocs"]; got > live {
		t.Errorf("one_shard_uncached allocates %d objects per request, the live store's uncached %d", got, live)
	}
	if got, live := doc["one_shard_ingest"]["op_allocs"], doc["ingest"]["op_allocs"]; got > live+2 {
		t.Errorf("one_shard_ingest allocates %d objects per request, the live store's ingest %d plus the cut's 2", got, live)
	}
	if path := os.Getenv("SERVE_BENCH_JSON"); path != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func valueTuple(vals ...int64) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Int(v)
	}
	return t
}
