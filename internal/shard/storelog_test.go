package shard_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bcq/internal/live"
	"bcq/internal/obs"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/wal"
)

// crossShardBatches are batches over the scene schema that each touch
// more than one shard at P ∈ {2, 3} (crossShard checks it): inserts,
// deletes of seeded tuples and of the sequence's own inserts.
func crossShardBatches() [][]live.Op {
	return [][]live.Op{
		{live.Insert("in_album", tup("k1", "a0")), live.Insert("in_album", tup("k2", "a1")), live.Insert("friends", tup("u0", "u7"))},
		{live.Delete("in_album", tup("a0p0", "a0")), live.Insert("tagging", tup("k1", "u1", "u2")), live.Insert("friends", tup("u1", "u8"))},
		{live.Insert("in_album", tup("k3", "a2")), live.Delete("friends", tup("u0", "u1")), live.Delete("in_album", tup("k2", "a1"))},
	}
}

// crossShard fails unless applying ops to ss publishes on two shards or
// more (on the one shard, at P = 1).
func crossShard(t *testing.T, ss *shard.Store, ops []live.Op) {
	t.Helper()
	before := ss.View().Epochs()
	if err := ss.Apply(ops); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for s, e := range ss.View().Epochs() {
		if e != before[s] {
			moved++
		}
	}
	if moved < min(2, ss.NumShards()) {
		t.Fatalf("batch %v published on %d shard(s), want a cross-shard batch", ops, moved)
	}
}

// countingFile counts the Writes and Syncs the log sends to its file.
type countingFile struct {
	wal.File
	writes, syncs int
}

func (f *countingFile) Write(p []byte) (int, error) { f.writes++; return f.File.Write(p) }
func (f *countingFile) Sync() error                 { f.syncs++; return f.File.Sync() }

// TestCrossShardBatchIsOneWriteOneSync: a durable sharded store keeps one
// log at its root and none per shard, and a batch that commits on two
// shards costs that log exactly one Write and one Sync.
func TestCrossShardBatchIsOneWriteOneSync(t *testing.T) {
	dir := t.TempDir()
	_, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	checkNoShardLogs(t, dir, ss.NumShards())
	for s := 0; s < ss.NumShards(); s++ {
		if ss.Shard(s).WAL() != ss.WAL() {
			t.Fatalf("shard %d reports a log other than the store's", s)
		}
	}
	var cf *countingFile
	ss.WAL().WrapFile(func(f wal.File) wal.File { cf = &countingFile{File: f}; return cf })
	crossShard(t, ss, crossShardBatches()[0])
	if cf.writes != 1 || cf.syncs != 1 {
		t.Fatalf("a two-shard batch cost %d writes and %d syncs, want 1 and 1", cf.writes, cf.syncs)
	}
	if got := ss.WAL().Stats().Appends; got != 1 {
		t.Fatalf("log counts %d appends, want 1", got)
	}
}

// TestStoreLogKillPointsAreAtomic arms the store log's fail point at every
// kill index of a sequence of cross-shard batches, with every torn length
// of the dying batch's frame, at P ∈ {1, 2, 3}. The batch that dies publishes
// on no shard, and recovery equals the pre-crash in-memory state, which
// equals a store that applied only the batches before it. A frame the
// crash left whole on disk (torn = its length) is a record like any
// other: recovery then holds the whole batch.
func TestStoreLogKillPointsAreAtomic(t *testing.T) {
	batches := crossShardBatches()
	for _, p := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			// Every batch is cross-shard (at P > 1); the frames' lengths
			// come from a run without fail points.
			ref := refStore(t, p, nil)
			for _, ops := range batches {
				crossShard(t, ref, ops)
			}
			_, acc, db := scene(t, 4, 4)
			ss, err := shard.New(db, acc, shard.Options{Shards: p, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			frames := make([]int, len(batches))
			for k, ops := range batches {
				before := ss.WAL().Stats().AppendedBytes
				if err := ss.Apply(ops); err != nil {
					t.Fatal(err)
				}
				frames[k] = int(ss.WAL().Stats().AppendedBytes - before)
			}
			ss.Close()
			for k := range batches {
				for torn := 0; torn <= frames[k]; torn++ {
					killAndRecover(t, p, k, torn, frames[k], false)
				}
			}
		})
	}
}

// TestStoreLogKillPointsInTheFill tears the one Write of an append that
// extends the log, frame and fill, at lengths that end inside the fill:
// the first append of a new store, and the first one after a
// checkpoint's Reset, which also dies at lengths inside its frame. A
// whole frame is a record and the fill behind it the log's clean end:
// recovery holds the whole batch and cuts nothing. A torn frame holds
// none of it, and recovery cuts it once.
func TestStoreLogKillPointsInTheFill(t *testing.T) {
	batches := crossShardBatches()
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			dir := t.TempDir()
			_, acc, db := scene(t, 4, 4)
			ds, err := shard.New(db, acc, shard.Options{Shards: p, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			frames := make([]int, 2)
			for k := range frames {
				before := ds.WAL().Stats().AppendedBytes
				if err := ds.Apply(batches[k]); err != nil {
					t.Fatal(err)
				}
				frames[k] = int(ds.WAL().Stats().AppendedBytes - before)
			}
			ds.Close()
			for _, fill := range []int{1, 3, 4096} {
				killAndRecover(t, p, 0, frames[0]+fill, frames[0], false)
				killAndRecover(t, p, 1, frames[1]+fill, frames[1], true)
			}
			for _, torn := range []int{0, 1, 3, 9, frames[1] - 1, frames[1]} {
				killAndRecover(t, p, 1, torn, frames[1], true)
			}
		})
	}
}

// TestStoreLogAppendsInsideTheFile: after the append that extends the
// log, the batches that fit in its fill leave the file's size as it was,
// and a closed store's log holds its logical bytes only.
func TestStoreLogAppendsInsideTheFile(t *testing.T) {
	dir := t.TempDir()
	_, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := crossShardBatches()
	crossShard(t, ss, batches[0])
	size := walSize(t, dir)
	if size <= ss.WAL().Stats().SizeBytes {
		t.Fatalf("the first batch left the log's file at %d bytes, no fill past its %d", size, ss.WAL().Stats().SizeBytes)
	}
	for _, ops := range batches[1:] {
		crossShard(t, ss, ops)
		if got := walSize(t, dir); got != size {
			t.Fatalf("a batch inside the log's fill changed the file's size: %d -> %d", size, got)
		}
	}
	// The process exits without the checkpoint Store.Close would take.
	logical := ss.WAL().Stats().SizeBytes
	if err := ss.WAL().Close(); err != nil {
		t.Fatal(err)
	}
	if got := walSize(t, dir); got != logical {
		t.Fatalf("a closed log holds %d bytes, want its %d logical bytes", got, logical)
	}
	cat, acc, _ := scene(t, 4, 4)
	re, rec, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec.ReplayedBatches != int64(len(batches)) || rec.TruncatedRecords != 0 {
		t.Fatalf("recovery replayed %d batches and cut %d frames, want %d and 0", rec.ReplayedBatches, rec.TruncatedRecords, len(batches))
	}
	assertSameShardState(t, re, refStore(t, 2, batches), true)
}

// walSize is the size of the store log's file in dir.
func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// refStore is an in-memory store of the scene that applied ops.
func refStore(t *testing.T, p int, ops [][]live.Op) *shard.Store {
	t.Helper()
	_, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range ops {
		if err := ss.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	return ss
}

// killAndRecover commits batches[:k] to a durable store, checkpoints it
// if asked, crashes the append of batches[k] after torn bytes of its
// write, and reopens. The dying batch's frame is frame bytes long; a
// write torn at or past it left the whole frame.
func killAndRecover(t *testing.T, p, k, torn, frame int, checkpoint bool) {
	t.Helper()
	batches := crossShardBatches()
	dir := t.TempDir()
	cat, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: p, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, ops := range batches[:k] {
		if err := ss.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	if checkpoint {
		if err := ss.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	logical := ss.WAL().Stats().SizeBytes
	ss.WAL().SetFailPoint(1, torn)
	if err := ss.Apply(batches[k]); !errors.Is(err, wal.ErrInjectedCrash) {
		t.Fatalf("batch %d, torn %d: Apply = %v, want the injected crash", k, torn, err)
	}
	// Only an append that extends the log writes past its frame: the file
	// then ends where the torn write does.
	if size := walSize(t, dir); torn > frame && size != logical+int64(torn) {
		t.Fatalf("batch %d, torn %d: the log's file holds %d bytes, want %d", k, torn, size, logical+int64(torn))
	}
	// The process is dead: no Close. Nothing of the batch published. A
	// checkpoint publishes an epoch of its own, which the reference,
	// never checkpointed, does not have.
	assertSameShardState(t, ss, refStore(t, p, batches[:k]), !checkpoint)

	re, rec, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatalf("batch %d, torn %d: recovery: %v", k, torn, err)
	}
	defer re.Close()
	replayed := int64(k)
	if checkpoint {
		replayed = 0
	}
	if whole := torn >= frame; whole {
		assertSameShardState(t, re, refStore(t, p, batches[:k+1]), !checkpoint)
		replayed++
	} else {
		assertSameShardState(t, re, ss, true)
	}
	if cut := rec.TruncatedRecords; torn > 0 && torn < frame && cut != 1 || torn >= frame && cut != 0 {
		t.Fatalf("batch %d, torn %d of a %d-byte frame: recovery cut %d frames", k, torn, frame, cut)
	}
	if rec.ReplayedBatches != replayed {
		t.Fatalf("batch %d, torn %d: replayed %d batches, want %d", k, torn, rec.ReplayedBatches, replayed)
	}
}

// holdFile holds the log's next Sync until release is closed, and closes
// entered once it holds it.
type holdFile struct {
	wal.File
	hold             atomic.Bool
	entered, release chan struct{}
}

func (f *holdFile) Sync() error {
	if f.hold.CompareAndSwap(true, false) {
		close(f.entered)
		<-f.release
	}
	return f.File.Sync()
}

// TestCompactWaitsForAHeldFsync: a batch whose fsync is held while
// Compact is called, then released, is in the store after both return
// and survives a crash right after: the checkpoint cannot reset the log
// under a batch that is logged but not yet published.
func TestCompactWaitsForAHeldFsync(t *testing.T) {
	dir := t.TempDir()
	cat, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := crossShardBatches()
	if err := ss.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	hf := &holdFile{entered: make(chan struct{}), release: make(chan struct{})}
	ss.WAL().WrapFile(func(f wal.File) wal.File { hf.File = f; hf.hold.Store(true); return hf })

	applied, compacted := make(chan error), make(chan error)
	go func() { applied <- ss.Apply(batches[1]) }()
	<-hf.entered
	go func() { compacted <- ss.Compact() }()
	close(hf.release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}

	// Crash: no Close.
	re, _, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameShardState(t, re, ss, true)
	assertSameShardState(t, re, refStore(t, 2, batches[:2]), false)
}

// TestShardExtensionIsOneLogRecord: a durable store logs an extension as
// one record naming every shard, which recovery replays on every shard;
// an extension whose append dies is on no shard after recovery.
func TestShardExtensionIsOneLogRecord(t *testing.T) {
	const ddl = `
relation r(a, b, c)

constraint r: (a) -> (b, 100)
`
	cat, acc, err := schema.ParseDDL(ddl)
	if err != nil {
		t.Fatal(err)
	}
	ext := schema.MustAccessConstraint("r", []string{"a", "b"}, []string{"c"}, 50)
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			dir := t.TempDir()
			ss, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: 3, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			var ops []live.Op
			for i := 0; i < 6; i++ {
				ops = append(ops, live.Insert("r", tup(fmt.Sprintf("a%d", i), "b", "c")))
			}
			if err := ss.Apply(ops); err != nil {
				t.Fatal(err)
			}
			if crash {
				ss.WAL().SetFailPoint(1, 11)
			}
			appends := ss.WAL().Stats().Appends
			err = ss.ExtendAccess(ext)
			if crash != errors.Is(err, wal.ErrInjectedCrash) {
				t.Fatalf("ExtendAccess = %v", err)
			}
			if !crash && ss.WAL().Stats().Appends != appends+1 {
				t.Fatalf("the extension cost %d appends, want 1", ss.WAL().Stats().Appends-appends)
			}
			// Crash: no Close. The extension is on every shard or on none.
			re, rec, err := shard.Open(dir, cat, nil, shard.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			want, replayed := 2, int64(1)
			if crash {
				want, replayed = 1, 0
			}
			if rec.ReplayedExtensions != replayed {
				t.Fatalf("replayed %d extensions, want %d", rec.ReplayedExtensions, replayed)
			}
			for s := 0; s < re.NumShards(); s++ {
				if n := re.Shard(s).Access().Size(); n != want {
					t.Fatalf("shard %d holds %d constraints, want %d", s, n, want)
				}
			}
			if err := re.Apply([]live.Op{live.Insert("r", tup("a9", "b9", "c9"))}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableShardsRefuseDirectWrites: a durable store's shards refuse
// the writes that would publish without the store logging them.
func TestDurableShardsRefuseDirectWrites(t *testing.T) {
	_, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	ls := ss.Shard(0)
	if _, err := ls.Apply(crossShardBatches()[0]); err == nil {
		t.Error("a durable shard accepted Apply")
	}
	ext := schema.MustAccessConstraint("in_album", []string{"photo_id"}, []string{"album_id"}, 1)
	if err := ls.ExtendAccess(ext); err == nil {
		t.Error("a durable shard accepted ExtendAccess")
	}
	if ls.Epoch() != 0 {
		t.Errorf("shard 0 at epoch %d after refused writes", ls.Epoch())
	}
}

// TestStoreLogMetricsExportedOnce: /metrics carries the store log's
// bcq_wal_* series once, without a shard label, and each shard's
// checkpoint series under its label.
func TestStoreLogMetricsExportedOnce(t *testing.T) {
	_, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 3, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	reg := obs.NewRegistry()
	ss.Instrument(reg)
	crossShard(t, ss, crossShardBatches()[0])
	var wals, segs []string
	for _, l := range strings.Split(reg.Expose(), "\n") {
		switch {
		case strings.HasPrefix(l, "bcq_wal_appends_total"):
			wals = append(wals, l)
		case strings.HasPrefix(l, "bcq_segment_epoch{"):
			segs = append(segs, l)
		}
	}
	if len(wals) != 1 || wals[0] != "bcq_wal_appends_total 1" {
		t.Errorf("bcq_wal_appends_total series %q, want one, unlabeled, at 1", wals)
	}
	if len(segs) != 3 {
		t.Errorf("bcq_segment_epoch series %q, want one per shard", segs)
	}
}

// TestReplaySkipsWhatAShardCheckpointed: a crash between the shards'
// checkpoints and the log's reset leaves one shard's segment holding
// sub-batches the log still records. Recovery skips them on that shard,
// by epoch, and replays them on the others.
func TestReplaySkipsWhatAShardCheckpointed(t *testing.T) {
	dir := t.TempDir()
	cat, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := crossShardBatches()
	for _, ops := range batches {
		crossShard(t, ss, ops)
	}
	// Shard 0 checkpoints; the crash comes before shard 1 does and before
	// the log is reset.
	if _, err := ss.Shard(0).Compact(); err != nil {
		t.Fatal(err)
	}
	if !ss.WAL().HasRecords() {
		t.Fatal("a shard's checkpoint reset the store's log")
	}
	re, rec, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameShardState(t, re, ss, true)
	if rec.ReplayedBatches != int64(len(batches)) || rec.SkippedRecords != 0 {
		t.Fatalf("replayed %d batches and skipped %d records, want %d and 0 (shard 1 replays every one)",
			rec.ReplayedBatches, rec.SkippedRecords, len(batches))
	}
}

// TestConcurrentBatchesReplayInCommitOrder: writers applying cross-shard
// batches at once to a durable store leave a log whose records follow
// every shard's commit order, so a crash right after recovers exactly
// the state the writers left.
func TestConcurrentBatchesReplayInCommitOrder(t *testing.T) {
	dir := t.TempDir()
	cat, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const writers, batches = 3, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				ops := []live.Op{
					live.Insert("in_album", tup(fmt.Sprintf("w%dp%d", w, b), fmt.Sprintf("a%d", b%4))),
					live.Insert("friends", tup(fmt.Sprintf("w%du%d", w, b), "u0")),
				}
				if b > 0 {
					ops = append(ops, live.Delete("in_album", tup(fmt.Sprintf("w%dp%d", w, b-1), fmt.Sprintf("a%d", (b-1)%4))))
				}
				if err := ss.Apply(ops); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := ss.WAL().Stats().Appends; got != writers*batches {
		t.Fatalf("%d batches cost %d appends", writers*batches, got)
	}
	re, rec, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec.ReplayedBatches != writers*batches {
		t.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, writers*batches)
	}
	assertSameShardState(t, re, ss, true)
}
