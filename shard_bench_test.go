// Benchmarks for the sharded store: scatter-gather read latency and
// flatness across shard counts, and ingest throughput scaling with P.
// Run with:
//
//	go test -bench 'Shard' -benchmem
//
// Metrics:
//
//	fetched_tuples   — tuples one evaluation fetches; identical at every
//	                   P (sharded execution is byte-identical)
//	ingest_ops_s     — duplicate-insert throughput across writer
//	                   goroutines; rises with P as per-shard admission,
//	                   copy-on-write maintenance and snapshot publication
//	                   run under independent writer locks
package bcq

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"bcq/internal/datagen"
	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/shard"
	"bcq/internal/storage"
)

// shardBenchP is the partition ladder both benchmarks walk.
var shardBenchP = []int{1, 2, 4, 8}

const shardBenchScale = 1.0 / 8

func shardSocialStore(b *testing.B, p int) (*shard.Store, *storage.Database) {
	b.Helper()
	ds := datagen.Social()
	db, err := ds.Build(shardBenchScale)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := shard.New(db, ds.Access, shard.Options{Shards: p})
	if err != nil {
		b.Fatal(err)
	}
	return ss, db
}

// shardFreshOps builds n schema-safe insert ops for fresh entities (new
// albums, users and photos, keyed by the stream tag and op index): every
// op creates a new single-entry index group, so each one walks the full
// admission + copy-on-write maintenance path at constant cost — the
// write-heavy workload whose throughput the shard count is supposed to
// multiply.
func shardFreshOps(tag string, n int) []live.Op {
	ops := make([]live.Op, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			ops = append(ops, live.Insert("in_album", bcqTuple(fmt.Sprintf("%sp%d", tag, i), fmt.Sprintf("%sa%d", tag, i))))
		case 1:
			ops = append(ops, live.Insert("friends", bcqTuple(fmt.Sprintf("%su%d", tag, i), fmt.Sprintf("%sf%d", tag, i))))
		default:
			ops = append(ops, live.Insert("tagging", bcqTuple(fmt.Sprintf("%sq%d", tag, i), fmt.Sprintf("%su%d", tag, i), fmt.Sprintf("%sv%d", tag, i))))
		}
	}
	return ops
}

func bcqTuple(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Str(v)
	}
	return t
}

// BenchmarkShard_ScatterGather measures prepared-query latency at each
// shard count: every probe routes to one owning shard and the groups are
// gathered back in probe order. fetched_tuples is identical at every P —
// per-query data access is flat in the shard count, the partitioned form
// of the paper's flatness in |D|.
func BenchmarkShard_ScatterGather(b *testing.B) {
	src, err := os.ReadFile("testdata/q0.sql")
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range shardBenchP {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			ss, _ := shardSocialStore(b, p)
			eng, err := engine.NewSharded(ss, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			prep, err := eng.Prepare(string(src))
			if err != nil {
				b.Fatal(err)
			}
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
			b.ReportMetric(float64(fetched), "fetched_tuples")
		})
	}
}

// BenchmarkShard_IngestScaling measures fresh-entity insert throughput
// at each shard count: four writer goroutines apply batches of 256, the
// store splits each batch by owning shard and stages the sub-batches
// shard-parallel. Batches commit one at a time; on multi-core hardware
// throughput rises with P because a batch's admission checks and group
// copy-on-write run on its shards in parallel, under per-shard locks.
func BenchmarkShard_IngestScaling(b *testing.B) {
	const (
		writers   = 4
		batchSize = 256
	)
	for _, p := range shardBenchP {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			ss, _ := shardSocialStore(b, p)
			// Pre-build per-writer op streams outside the timer; disjoint
			// tags keep every stream's entities fresh.
			streams := make([][]live.Op, writers)
			per := (b.N + writers - 1) / writers
			for w := 0; w < writers; w++ {
				streams[w] = shardFreshOps(fmt.Sprintf("w%d_", w), per)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					st := streams[w]
					for lo := 0; lo < len(st); lo += batchSize {
						hi := min(lo+batchSize, len(st))
						if err := ss.Apply(st[lo:hi]); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ingest_ops_s")
		})
	}
}
