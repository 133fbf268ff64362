// Durable-tier benchmarks and the BENCH_storage.json emit.
//
// BenchmarkWALAppend prices the commit pipeline's durability step — one
// fsynced WAL append per batch of a durable one-shard store, the single
// store — BenchmarkShardedWALAppend the same for a batch that commits on
// both shards of a durable two-shard store (one record, one fsync), and
// BenchmarkRecovery prices bringing a crashed one-shard store back
// (segment load + WAL-tail replay through normal admission).
// TestStorageBenchEmit measures the same paths once and,
// when STORAGE_BENCH_JSON names a path, writes the perf trajectory
// there; CI compares it against bench/BENCH_storage.json (tools/benchcmp:
// bytes and counts past +25% fail, times are reported).
//
// Emitted lower-is-better fields:
//
//	wal.append_ns              — one committed single-op batch (fsync included)
//	wal.frame_bytes            — bytes a one-op batch occupies on the log
//	recovery.open_ns           — full Open of a crashed store (segment + tail)
//	recovery.per_record_ns     — open cost divided over the replayed records
//	checkpoint.compact_ns      — Compact: freeze + segment write + WAL reset
//	checkpoint.segment_bytes   — size of the sealed segment
//	bootstrap.new_ns           — live.New over an indexed base whose first
//	                             few tuples of each relation occur twice
//	                             (the median of nine calls)
//	bootstrap.new_allocs       — the objects that call allocates (a count,
//	                             the same on every machine and every run)
//	churn_commit.history_1k_bytes, history_1k_allocs,
//	churn_commit.history_16k_bytes, history_16k_allocs
//	                           — what one churn commit allocates (churnBatch:
//	                             eight inserts and the deletes of the batch
//	                             64 commits back, on an in-memory store),
//	                             1 Ki and 16 Ki commits after a Compact;
//	                             asserted flat in that history
//
// and, informational, bootstrap.retained_bytes_per_tuple — the live heap
// that call adds beside the base — and checkpoint.retained_bytes_per_tuple
// — the live heap a Compact leaves behind once nothing pins the base it
// replaced, asserted ≤ a tenth of the base's own bytes per tuple: a stale
// base still reachable from the store is a whole one.
package bcq

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"bcq/internal/datagen"
	"bcq/internal/live"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// durableBenchStore seeds a durable one-shard store in a fresh directory.
func durableBenchStore(tb testing.TB, dir string) *ShardedDatabase {
	tb.Helper()
	_, acc, db := buildDurableScene(tb)
	ss, err := NewShardedDatabase(db, acc, ShardOptions{Shards: 1, Dir: dir})
	if err != nil {
		tb.Fatal(err)
	}
	return ss
}

// benchOp returns the i-th single-insert batch (distinct tuples, so no
// batch is a no-op duplicate). The photos fill albums of 500, half of
// in_album's bound, so any number of batches is admitted.
func benchOp(i int) []LiveOp {
	return []LiveOp{InsertOp("in_album", Tuple{Str(fmt.Sprintf("bench-p%d", i)), Str(fmt.Sprintf("bench-a%d", i/500))})}
}

// BenchmarkWALAppend measures one committed batch through the durable
// commit pipeline: validate, WAL append, fsync, publish.
func BenchmarkWALAppend(b *testing.B) {
	ss := durableBenchStore(b, b.TempDir())
	defer ss.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ss.Apply(benchOp(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedWALAppend measures one committed batch of a durable
// two-shard store that touches both shards: stage on each shard, one
// record and one fsync on the store's log, publish on each shard.
func BenchmarkShardedWALAppend(b *testing.B) {
	_, acc, db := buildDurableScene(b)
	ss, err := NewShardedDatabase(db, acc, ShardOptions{Shards: 2, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer ss.Close()
	// Per 500 batches, a fresh pair of albums whose photos sit on
	// different shards: both groups stay under in_album's bound.
	ac := acc.ForRelation("in_album")[0]
	pairs := make([][2]string, b.N/500+1)
	for g := range pairs {
		var names []string
		var xs []Tuple
		for k := 0; k < 16; k++ {
			names = append(names, fmt.Sprintf("bench-a%d-%d", g, k))
			xs = append(xs, Tuple{Str(names[k])})
		}
		owners, err := ss.View().Partition(ac, xs)
		if err != nil {
			b.Fatal(err)
		}
		k := slices.IndexFunc(owners, func(o int) bool { return o != owners[0] })
		if k < 0 {
			b.Fatal("sixteen albums on one shard")
		}
		pairs[g] = [2]string{names[0], names[k]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair := pairs[i/500]
		batch := []LiveOp{
			InsertOp("in_album", Tuple{Str(fmt.Sprintf("bench-p%d", i)), Str(pair[0])}),
			InsertOp("in_album", Tuple{Str(fmt.Sprintf("bench-q%d", i)), Str(pair[1])}),
		}
		if err := ss.Apply(batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := ss.WAL().Stats().Appends; got != int64(b.N) {
		b.Fatalf("%d batches cost %d appends", b.N, got)
	}
}

// BenchmarkRecovery measures Open on a crashed store: each iteration
// seeds a directory, commits recoveryRecords batches, abandons the store
// without Close, and times the reopen (segment load + full tail replay).
func BenchmarkRecovery(b *testing.B) {
	const recoveryRecords = 128
	cat, acc, _ := buildDurableScene(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), fmt.Sprintf("store%d", i))
		ss := durableBenchStore(b, dir)
		for j := 0; j < recoveryRecords; j++ {
			if err := ss.Apply(benchOp(j)); err != nil {
				b.Fatal(err)
			}
		}
		// Crash: abandon without Close so the WAL tail stays unreplayed.
		b.StartTimer()
		re, rec, err := OpenShardedDatabase(dir, cat, acc, ShardOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if rec.ReplayedOps != recoveryRecords {
			b.Fatalf("replayed %d ops, want %d", rec.ReplayedOps, recoveryRecords)
		}
		re.Close()
	}
}

// socialWithRepeats is indexedSocial's one-copy scene, indexed, with the
// first k tuples of every relation occurring a second time at its end.
func socialWithRepeats(tb testing.TB, k int) (*storage.Database, *datagen.Dataset) {
	tb.Helper()
	src, ds := indexedSocial(tb, 1)
	db := storage.NewDatabase(src.Catalog())
	for _, rs := range src.Catalog().Relations() {
		tuples := src.MustRelation(rs.Name()).Tuples
		db.MustRelation(rs.Name()).Tuples = append(slices.Clip(tuples), tuples[:min(k, len(tuples))]...)
	}
	if err := db.EnsureIndexes(ds.Access); err != nil {
		tb.Fatal(err)
	}
	return db, ds
}

// churnLag is how many commits back churnBatch deletes what it inserted.
const churnLag = 64

// churnStore is an in-memory live store over the social dataset that
// commits churnBatch after churnBatch: the commit shape of the
// benchmark's ingest_churn workload.
type churnStore struct {
	st    *live.Store
	users int64
	ring  [churnLag][]live.Op
	c     int64
}

func newChurnStore(tb testing.TB) *churnStore {
	tb.Helper()
	db, ds := indexedSocial(tb, 1)
	st, err := live.New(db, ds.Access, live.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return &churnStore{st: st, users: int64(len(db.MustRelation("friends").Tuples) / 8)}
}

// commit applies the next churn batch: a new user with three friends, a
// new album of two photos, two tags, and the new user befriended by an
// existing one, which rewrites a group of the base; plus the deletes of
// the batch churnLag commits back.
func (cs *churnStore) commit(tb testing.TB) {
	c := cs.c
	cs.c++
	u, a, p := 1_000_000+c, 1_000_000+c, 2_000_000+2*c
	f := [3]int64{c % cs.users, (c*7 + 1) % cs.users, (c*13 + 2) % cs.users}
	old := cs.st.Snapshot().Epoch() // a batch is one commit: the epoch moves by one
	ins := []live.Op{
		live.Insert("friends", value.Tuple{value.Int(u), value.Int(f[0])}),
		live.Insert("friends", value.Tuple{value.Int(u), value.Int(f[1])}),
		live.Insert("friends", value.Tuple{value.Int(u), value.Int(f[2])}),
		live.Insert("friends", value.Tuple{value.Int((c * 2654435761) % cs.users), value.Int(u)}),
		live.Insert("in_album", value.Tuple{value.Int(p), value.Int(a)}),
		live.Insert("in_album", value.Tuple{value.Int(p + 1), value.Int(a)}),
		live.Insert("tagging", value.Tuple{value.Int(p), value.Int(f[0]), value.Int(u)}),
		live.Insert("tagging", value.Tuple{value.Int(p), value.Int(f[1]), value.Int(f[0])}),
	}
	batch := ins
	for _, o := range cs.ring[c%churnLag] {
		batch = append(batch, live.Delete(o.Rel, o.Tuple))
	}
	cs.ring[c%churnLag] = ins
	if e, err := cs.st.Apply(batch); err != nil || e != old+1 {
		tb.Fatalf("churn commit %d: epoch %d, %v", c, e, err)
	}
}

// churnCommitCost runs commits churn commits and returns what one
// allocated, in bytes and objects: averages over the run.
func churnCommitCost(tb testing.TB, cs *churnStore, commits int) (bytes, allocs int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range commits {
		cs.commit(tb)
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / int64(commits), int64(after.Mallocs-before.Mallocs) / int64(commits)
}

// BenchmarkChurnCommit prices one churn commit on a store that has taken
// b.N of them since its Compact.
func BenchmarkChurnCommit(b *testing.B) {
	cs := newChurnStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		cs.commit(b)
	}
}

// TestStorageBenchEmit measures the durable tier's guardrail paths once
// and asserts their sanity (every record replays, the checkpoint resets
// the WAL); with STORAGE_BENCH_JSON set the measurements are written
// there (BENCH_storage.json in CI) so the perf trajectory records.
func TestStorageBenchEmit(t *testing.T) {
	const appends = 256
	cat, acc, _ := buildDurableScene(t)
	dir := filepath.Join(t.TempDir(), "store")
	ss := durableBenchStore(t, dir)

	start := time.Now()
	for i := 0; i < appends; i++ {
		if err := ss.Apply(benchOp(i)); err != nil {
			t.Fatal(err)
		}
	}
	appendNS := time.Since(start).Nanoseconds() / appends
	ws := ss.WAL().Stats()
	if ws.Appends != appends {
		t.Fatalf("WAL holds %d appends, want %d", ws.Appends, appends)
	}
	frameBytes := ws.AppendedBytes / appends

	// Crash (no Close) and time the recovery.
	start = time.Now()
	re, rec, err := OpenShardedDatabase(dir, cat, acc, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	openNS := time.Since(start).Nanoseconds()
	if rec.ReplayedOps != appends {
		t.Fatalf("recovery replayed %d ops, want %d", rec.ReplayedOps, appends)
	}

	// Checkpoint: freeze + segment write + WAL reset.
	start = time.Now()
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	compactNS := time.Since(start).Nanoseconds()
	if re.WAL().HasRecords() {
		t.Fatal("checkpoint left WAL records behind")
	}
	segs, err := filepath.Glob(filepath.Join(dir, "shard-000", "seg-*.bcq"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("checkpoint wrote no segment (err %v)", err)
	}
	var segBytes int64
	for _, s := range segs {
		info, err := os.Stat(s)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > segBytes {
			segBytes = info.Size()
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Bootstrap: live.New over a base whose indexes are built and where a
	// few pairs repeat — what the writer allocates and retains beside it.
	// A bootstrap that keyed every tuple to find the repeats would show
	// here as allocations per tuple.
	const news = 9
	baseDB, ds := socialWithRepeats(t, 4)
	var ls *live.Store
	retained := retainedBytes(func() {
		if ls, err = live.New(baseDB, ds.Access, live.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	retainedPerTuple := int64(retained) / ls.NumTuples()
	// The median of nine timed calls, each after the one above: a mean
	// takes in whichever call a collection lands on.
	var newTimes [news]int64
	for i := range newTimes {
		start := time.Now()
		if _, err := live.New(baseDB, ds.Access, live.Options{}); err != nil {
			t.Fatal(err)
		}
		newTimes[i] = time.Since(start).Nanoseconds()
	}
	slices.Sort(newTimes[:])
	newNS := newTimes[news/2]
	newAllocs := int64(testing.AllocsPerRun(news, func() {
		if _, err := live.New(baseDB, ds.Access, live.Options{}); err != nil {
			t.Fatal(err)
		}
	}))

	// Checkpoint retention: a store that alone holds its base compacts,
	// and with no snapshot of the old epoch pinned the old base must go.
	var cs *live.Store
	basePerTuple := int64(retainedBytes(func() {
		db, ds := indexedSocial(t, 1)
		if cs, err = live.New(db, ds.Access, live.Options{}); err != nil {
			t.Fatal(err)
		}
	})) / cs.NumTuples()
	compactRetainedPerTuple := int64(retainedBytes(func() {
		if _, err := cs.Compact(); err != nil {
			t.Fatal(err)
		}
	})) / cs.NumTuples()
	if compactRetainedPerTuple > basePerTuple/10 {
		t.Errorf("a Compact leaves %d B/tuple behind with nothing pinning the old base, more than a tenth of the base's own %d B/tuple",
			compactRetainedPerTuple, basePerTuple)
	}

	// A churn commit costs the same 1 Ki and 16 Ki commits after a
	// Compact: what it allocates follows the groups it rewrote, not the
	// history.
	const churnSample = 512
	churn := newChurnStore(t)
	churnCommitCost(t, churn, 1024-churnSample/2)
	bytes1k, allocs1k := churnCommitCost(t, churn, churnSample)
	churnCommitCost(t, churn, 16*1024-1024-churnSample)
	bytes16k, allocs16k := churnCommitCost(t, churn, churnSample)
	if float64(bytes16k) > 1.1*float64(bytes1k) || float64(allocs16k) > 1.1*float64(allocs1k) {
		t.Errorf("a churn commit allocates %d B in %d objects 16 Ki commits after a Compact, against %d B in %d objects after 1 Ki: it grows with the history",
			bytes16k, allocs16k, bytes1k, allocs1k)
	}

	t.Logf("churn commit: %d B, %d allocs at 1 Ki commits since the Compact; %d B, %d allocs at 16 Ki", bytes1k, allocs1k, bytes16k, allocs16k)
	t.Logf("wal append %s/op (%d B frame); recovery of %d records %s (%s/record); checkpoint %s (%d B segment); live.New %s and %d allocations over %d tuples (%d B/tuple retained); a Compact retains %d B/tuple beside a base of %d B/tuple",
		time.Duration(appendNS), frameBytes, appends, time.Duration(openNS),
		time.Duration(openNS/appends), time.Duration(compactNS), segBytes,
		time.Duration(newNS), newAllocs, ls.NumTuples(), retainedPerTuple, compactRetainedPerTuple, basePerTuple)

	if path := os.Getenv("STORAGE_BENCH_JSON"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		doc := map[string]map[string]int64{
			"wal": {
				"append_ns":   appendNS,
				"frame_bytes": frameBytes,
			},
			"recovery": {
				"records":       appends,
				"open_ns":       openNS,
				"per_record_ns": openNS / appends,
			},
			"checkpoint": {
				"compact_ns":               compactNS,
				"segment_bytes":            segBytes,
				"retained_bytes_per_tuple": compactRetainedPerTuple,
			},
			"churn_commit": {
				"history_1k_bytes":   bytes1k,
				"history_1k_allocs":  allocs1k,
				"history_16k_bytes":  bytes16k,
				"history_16k_allocs": allocs16k,
			},
			"bootstrap": {
				"tuples":                   ls.NumTuples(),
				"new_ns":                   newNS,
				"new_allocs":               newAllocs,
				"retained_bytes_per_tuple": retainedPerTuple,
			},
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
