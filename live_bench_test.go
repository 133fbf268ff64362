// Benchmarks for the live layer: ingest throughput, read latency under
// concurrent write load, the bounded-access flatness of reads as |D|
// grows through live inserts, and what live.New and Compact cost and
// retain beside the indexed base. Run with:
//
//	go test -bench 'Live' -benchmem
//
// Metrics:
//
//	ingest_ops_s     — duplicate-insert throughput (batches of 64)
//	epochs           — epochs committed during the benchmark
//	fetched_tuples   — tuples one evaluation fetches (flat in |D|)
//	D_growth_x       — how much the benchmark grew |D| before reading
//	retained-B/tuple — live heap the measured call added, per tuple of |D|
package bcq

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"bcq/internal/datagen"
	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/storage"
)

// liveBenchScale keeps dataset construction cheap; the live layer's
// costs are what is being measured.
const liveBenchScale = 1.0 / 16

func liveSocialStore(b *testing.B) *live.Store {
	b.Helper()
	ds := datagen.Social()
	db, err := ds.Build(liveBenchScale)
	if err != nil {
		b.Fatal(err)
	}
	ls, err := live.New(db, ds.Access, live.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return ls
}

// dupOps builds n schema-safe insert ops: duplicates of base tuples,
// round-robin across relations (the duplication mechanism datagen grows
// |D| with).
func dupOps(b *testing.B, ls *live.Store, n int) []live.Op {
	b.Helper()
	base := ls.Base()
	var rels []*storage.Relation
	for _, rs := range base.Catalog().Relations() {
		if r := base.MustRelation(rs.Name()); len(r.Tuples) > 0 {
			rels = append(rels, r)
		}
	}
	ops := make([]live.Op, 0, n)
	for i := 0; i < n; i++ {
		r := rels[i%len(rels)]
		ops = append(ops, live.Insert(r.Schema.Name(), r.Tuples[(i/len(rels))%len(r.Tuples)]))
	}
	return ops
}

// BenchmarkLiveIngest measures duplicate-insert throughput in batches of
// 64 (one epoch per batch).
func BenchmarkLiveIngest(b *testing.B) {
	ls := liveSocialStore(b)
	ops := dupOps(b, ls, b.N)
	b.ResetTimer()
	for lo := 0; lo < len(ops); lo += 64 {
		hi := min(lo+64, len(ops))
		if _, err := ls.Apply(ops[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ingest_ops_s")
	b.ReportMetric(float64(ls.IngestStats().Epochs), "epochs")
}

// BenchmarkLiveReadUnderIngest measures prepared-query latency while a
// background writer commits duplicate batches as fast as it can. Each
// read pins its own snapshot; neither side blocks the other.
func BenchmarkLiveReadUnderIngest(b *testing.B) {
	ls := liveSocialStore(b)
	eng, err := engine.NewLive(ls, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	src, err := os.ReadFile("testdata/q0.sql")
	if err != nil {
		b.Fatal(err)
	}
	prep, err := eng.Prepare(string(src))
	if err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		ops := dupOps(b, ls, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ls.Apply(ops); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	// Let the writer reach steady state before timing reads.
	time.Sleep(10 * time.Millisecond)

	b.ResetTimer()
	var fetched int64
	for i := 0; i < b.N; i++ {
		res, err := prep.Exec()
		if err != nil {
			b.Fatal(err)
		}
		fetched = res.Stats.TuplesFetched
	}
	b.StopTimer()
	close(stop)
	<-writerDone
	b.ReportMetric(float64(fetched), "fetched_tuples")
	b.ReportMetric(float64(ls.IngestStats().Epochs), "epochs")
}

// BenchmarkLiveReadAfterGrowth grows |D| 4× through live inserts, then
// measures read latency and access counts on the grown store. The
// fetched_tuples metric matches an ungrown run: bounded evaluation's
// access is flat in |D| even when all the growth arrived live.
func BenchmarkLiveReadAfterGrowth(b *testing.B) {
	ls := liveSocialStore(b)
	eng, err := engine.NewLive(ls, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	src, err := os.ReadFile("testdata/q0.sql")
	if err != nil {
		b.Fatal(err)
	}
	prep, err := eng.Prepare(string(src))
	if err != nil {
		b.Fatal(err)
	}
	before, err := prep.Exec()
	if err != nil {
		b.Fatal(err)
	}

	d0 := ls.Snapshot().NumTuples()
	ops := dupOps(b, ls, int(3*d0))
	for lo := 0; lo < len(ops); lo += 64 {
		hi := min(lo+64, len(ops))
		if _, err := ls.Apply(ops[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		res, err = prep.Exec()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.Stats.TuplesFetched != before.Stats.TuplesFetched {
		b.Fatalf("tuple accesses grew with |D|: %d → %d", before.Stats.TuplesFetched, res.Stats.TuplesFetched)
	}
	b.ReportMetric(float64(res.Stats.TuplesFetched), "fetched_tuples")
	b.ReportMetric(float64(ls.Snapshot().NumTuples())/float64(d0), "D_growth_x")
}

// retainedBytes is the live heap f leaves behind: the difference of two
// collected readings around it.
func retainedBytes(f func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// indexedSocial builds the social dataset with copies physical copies of
// every logical row and its access indices already in place, so what a
// benchmark measures afterwards is the live layer's own work.
func indexedSocial(tb testing.TB, copies int) (*storage.Database, *datagen.Dataset) {
	tb.Helper()
	ds := datagen.Social()
	db, err := ds.Build(float64(copies) / 32)
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.EnsureIndexes(ds.Access); err != nil {
		tb.Fatal(err)
	}
	return db, ds
}

// BenchmarkLiveNew measures live.New over an indexed base — the writer's
// bootstrap — on data where every (X, Y) pair occurs once (copies=1:
// nothing to record, retained-B/tuple ≈ 0) and where every pair occurs
// twice (copies=2: one ledger record per pair).
func BenchmarkLiveNew(b *testing.B) {
	for _, copies := range []int{1, 2} {
		b.Run(fmt.Sprintf("copies=%d", copies), func(b *testing.B) {
			db, ds := indexedSocial(b, copies)
			var ls *live.Store
			build := func() {
				var err error
				if ls, err = live.New(db, ds.Access, live.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			retained := retainedBytes(build)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				build()
			}
			b.StopTimer()
			b.ReportMetric(retained/float64(ls.NumTuples()), "retained-B/tuple")
		})
	}
}

// BenchmarkLiveCompact measures Compact — freeze, index build and the
// bootstrap over the fresh base, all under the writer mutex — on a store
// that has taken one duplicate of every base tuple. retained-B/tuple is
// what the first compaction adds: the new base, since the store keeps
// its original one reachable through Base.
func BenchmarkLiveCompact(b *testing.B) {
	db, ds := indexedSocial(b, 1)
	ls, err := live.New(db, ds.Access, live.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ops := dupOps(b, ls, int(ls.NumTuples()))
	for lo := 0; lo < len(ops); lo += 64 {
		if _, err := ls.Apply(ops[lo:min(lo+64, len(ops))]); err != nil {
			b.Fatal(err)
		}
	}
	compact := func() {
		if _, err := ls.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	retained := retainedBytes(compact)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compact()
	}
	b.StopTimer()
	b.ReportMetric(retained/float64(ls.NumTuples()), "retained-B/tuple")
}
