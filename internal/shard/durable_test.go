package shard_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/segment"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
	"bcq/internal/wal"
)

func tup(vals ...string) value.Tuple {
	tu := make(value.Tuple, len(vals))
	for i, v := range vals {
		tu[i] = str(v)
	}
	return tu
}

// shardBatches is the durable tests' write workload over the scene
// schema: inserts and deletes across all three (partitioned) relations.
func shardBatches() [][]live.Op {
	return [][]live.Op{
		{live.Insert("in_album", tup("n1", "a0")), live.Insert("friends", tup("u0", "u9"))},
		{live.Insert("tagging", tup("n1", "u1", "u2")), live.Delete("in_album", tup("a0p0", "a0"))},
		{live.Delete("friends", tup("u1", "u2")), live.Insert("in_album", tup("n2", "a3"))},
		{live.Insert("in_album", tup("n3", "a1"))},
	}
}

// assertSameShardState asserts two sharded stores expose identical data,
// shard by shard: per-shard per-relation tuples in live order, merged
// cardinality statistics, schema and tuple count. checkEpochs also
// compares the epoch vectors — valid when neither side checkpointed
// (checkpoints publish epochs the other side may not have).
func assertSameShardState(t *testing.T, got, want *shard.Store, checkEpochs bool) {
	t.Helper()
	if got.NumShards() != want.NumShards() {
		t.Fatalf("NumShards = %d, want %d", got.NumShards(), want.NumShards())
	}
	for s := 0; checkEpochs && s < want.NumShards(); s++ {
		if ge, we := got.Shard(s).Epoch(), want.Shard(s).Epoch(); ge != we {
			t.Fatalf("shard %d at epoch %d, want %d", s, ge, we)
		}
	}
	if gn, wn := got.NumTuples(), want.NumTuples(); gn != wn {
		t.Fatalf("NumTuples = %d, want %d", gn, wn)
	}
	if !reflect.DeepEqual(got.CardStats(), want.CardStats()) {
		t.Fatalf("CardStats differ:\n got %+v\nwant %+v", got.CardStats(), want.CardStats())
	}
	if gs, ws := got.Access().String(), want.Access().String(); gs != ws {
		t.Fatalf("Access = %s, want %s", gs, ws)
	}
	for s := 0; s < want.NumShards(); s++ {
		gSnap, wSnap := got.Shard(s).Snapshot(), want.Shard(s).Snapshot()
		for _, rs := range want.Catalog().Relations() {
			var gt, wt []value.Tuple
			if err := gSnap.Scan(rs.Name(), func(pos int, tu value.Tuple) bool {
				gt = append(gt, tu)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if err := wSnap.Scan(rs.Name(), func(pos int, tu value.Tuple) bool {
				wt = append(wt, tu)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(gt) != len(wt) {
				t.Fatalf("shard %d %s: %d live tuples, want %d", s, rs.Name(), len(gt), len(wt))
			}
			for i := range wt {
				if !gt[i].Equal(wt[i]) {
					t.Fatalf("shard %d %s[%d] = %s, want %s", s, rs.Name(), i, gt[i], wt[i])
				}
			}
		}
	}
}

// refShardStore builds the in-memory reference that applied the first n
// workload batches.
func refShardStore(t *testing.T, p, n int) *shard.Store {
	t.Helper()
	_, acc, db := scene(t, 4, 4)
	ref, err := shard.New(db, acc, shard.Options{Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range shardBatches()[:n] {
		if err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

func TestShardDurableCrashReplaysTail(t *testing.T) {
	dir := t.TempDir()
	cat, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := shardBatches()
	for _, b := range batches {
		if err := ss.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close: the crash case. The store's log must replay
	// every committed sub-batch on its shard.
	re, rec, err := shard.Open(dir, cat, acc, shard.Options{Shards: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	var wantOps int64
	for _, b := range batches {
		wantOps += int64(len(b))
	}
	if rec.ReplayedOps != wantOps || rec.ReplayedBatches != int64(len(batches)) {
		t.Fatalf("replayed %d ops in %d batches, want %d in %d", rec.ReplayedOps, rec.ReplayedBatches, wantOps, len(batches))
	}
	// No checkpoint ran on either side, so even the epoch vectors match:
	// each shard's recovered epoch is exactly its committed sub-batch
	// count.
	assertSameShardState(t, re, refShardStore(t, 3, len(batches)), true)
}

func TestShardDurableCleanShutdownReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	cat, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := shardBatches()
	for _, b := range batches {
		if err := ss.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ss.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	re, rec, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if re.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2 from the manifest", re.NumShards())
	}
	if rec.ReplayedOps != 0 || rec.ReplayedBatches != 0 || rec.ReplayedExtensions != 0 {
		t.Fatalf("clean shutdown replayed work: %+v", rec)
	}
	// Close checkpointed some shards (epoch bumps the in-memory reference
	// does not have), so compare content, not epochs.
	assertSameShardState(t, re, refShardStore(t, 2, len(batches)), false)
}

func TestShardOpenValidatesShardCount(t *testing.T) {
	dir := t.TempDir()
	cat, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := shard.Open(dir, cat, acc, shard.Options{Shards: 2}); !errors.Is(err, shard.ErrShardMismatch) {
		t.Fatalf("Open with wrong shard count = %v, want ErrShardMismatch", err)
	}
	re, _, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumShards() != 3 {
		t.Fatalf("NumShards = %d, want 3", re.NumShards())
	}
}

func TestShardOpenFreshDirectory(t *testing.T) {
	dir := t.TempDir()
	cat, acc, _ := scene(t, 4, 4)
	ss, rec, err := shard.Open(dir, cat, acc, shard.Options{Shards: 2})
	if err != nil {
		t.Fatalf("Open on fresh dir: %v", err)
	}
	if !rec.Fresh {
		t.Fatal("fresh open not reported as fresh")
	}
	if err := ss.Apply(shardBatches()[0]); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	re, rec2, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec2.Fresh {
		t.Fatal("second open reported fresh")
	}
	if re.NumTuples() != 2 {
		t.Fatalf("NumTuples = %d, want 2", re.NumTuples())
	}
}

// TestShardManifestRecordsPlacements pins the on-disk placement rules:
// partitioned relations persist their shard key — a constraint-less
// relation all its attributes — and a reopened store routes with them
// rather than re-deriving (which a widened schema could skew).
func TestShardManifestRecordsPlacements(t *testing.T) {
	const ddl = `
relation r(a, b, c)
relation events(msg)

constraint r: (a) -> (b, 100)
`
	cat, acc, err := schema.ParseDDL(ddl)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ss, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ops := []live.Op{
		live.Insert("r", tup("a1", "b1", "c1")),
		live.Insert("events", tup("e1")),
		live.Insert("events", tup("e2")),
		live.Insert("events", tup("e3")),
	}
	if err := ss.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	m, err := shard.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 3 {
		t.Fatalf("manifest shards = %d, want 3", m.Shards)
	}
	if mp := m.Placements["r"]; mp.Kind != "partitioned" || len(mp.Key) != 1 || mp.Key[0] != "a" {
		t.Fatalf("r placement = %+v, want partitioned by (a)", mp)
	}
	if mp := m.Placements["events"]; mp.Kind != "partitioned" || len(mp.Key) != 1 || mp.Key[0] != "msg" {
		t.Fatalf("events placement = %+v, want partitioned by (msg)", mp)
	}

	re, _, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got, _ := re.PlacementOf("r"); got != "partitioned by (a)" {
		t.Fatalf("recovered placement of r = %q", got)
	}
	if got, _ := re.PlacementOf("events"); got != "partitioned by (msg)" {
		t.Fatalf("recovered placement of events = %q", got)
	}
	if re.NumTuples() != int64(len(ops)) {
		t.Fatalf("NumTuples = %d, want %d", re.NumTuples(), len(ops))
	}
}

// loseSegment loses a checkpoint segment the way a disk does: the file is
// gone, or a byte of it is flipped.
func loseSegment(t *testing.T, path, loss string) {
	t.Helper()
	if loss == "removed" {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLostCheckpointKeepsLaterWrites: at P = 1, 2, 3, shard 0's newest
// checkpoint is lost — its segment removed, or corrupted — so the store
// reopens on the one before and drops the log's records from the first
// that leaves a gap. Every batch acknowledged after that reopen must
// survive the next crash: the reopen cut those records from the log, so
// later commits are not appended behind them, and a second reopen drops
// nothing. Shard 0's later checkpoints, one below the lost epoch and one
// at it, are the ones later reopens find: neither meets the corrupt file
// nor is hidden by it, and it is not retained in place of a good one.
func TestLostCheckpointKeepsLaterWrites(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		for _, loss := range []string{"removed", "corrupt"} {
			t.Run(fmt.Sprintf("P%d/%s", p, loss), func(t *testing.T) {
				dir := t.TempDir()
				cat, acc, db := scene(t, 4, 4)
				ss, err := shard.New(db, acc, shard.Options{Shards: p, Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				// writeUntil commits single-insert batches, each on the shard
				// its tuple hashes to, until shard 0 stands at epoch e.
				writeUntil := func(st *shard.Store, e uint64) {
					t.Helper()
					for st.Shard(0).Epoch() < e {
						n++
						if err := st.Apply([]live.Op{live.Insert("friends", tup(fmt.Sprintf("w%d", n), "u0"))}); err != nil {
							t.Fatal(err)
						}
					}
				}
				writeUntil(ss, 5)
				if err := ss.Compact(); err != nil {
					t.Fatal(err)
				}
				lost := ss.Shard(0).Epoch()
				writeUntil(ss, lost+1) // logged behind the checkpoint
				// Crash: ss is abandoned without Close.
				sdir := filepath.Join(dir, "shard-000")
				if segs := segment.List(sdir); len(segs) != 2 || segs[0].Epoch != lost {
					t.Fatalf("shard 0 holds segments %+v, want two, the newest at epoch %d", segs, lost)
				} else {
					loseSegment(t, segs[0].Path, loss)
				}

				re, rec, err := shard.Open(dir, cat, acc, shard.Options{Shards: p})
				if err != nil {
					t.Fatalf("first reopen: %v", err)
				}
				if rec.GapRecords == 0 || re.Shard(0).Epoch() != 0 {
					t.Fatalf("first reopen: shard 0 at epoch %d, %d gap records; want the epoch-0 checkpoint and a gap", re.Shard(0).Epoch(), rec.GapRecords)
				}
				writeUntil(re, 2)
				// Crash, and reopen: what the first reopen acknowledged is
				// all there, and no record of it is taken for a gap.
				re2, rec2, err := shard.Open(dir, cat, acc, shard.Options{Shards: p})
				if err != nil {
					t.Fatalf("second reopen: %v", err)
				}
				if rec2.GapRecords != 0 || len(rec2.CorruptSegments) != 0 {
					t.Fatalf("second reopen: %d gap records, corrupt segments %v; want none", rec2.GapRecords, rec2.CorruptSegments)
				}
				assertSameShardState(t, re2, re, true)

				if err := re2.Compact(); err != nil { // shard 0's checkpoint at epoch 3, below the lost one
					t.Fatal(err)
				}
				// The two segments retained are good ones: a corrupt file
				// kept among them would leave no fallback.
				if segs := segment.List(sdir); len(segs) != 2 || segs[0].Epoch != 3 || segs[1].Epoch != 0 {
					t.Fatalf("shard 0 retains segments %+v, want those of epochs 3 and 0", segs)
				}
				writeUntil(re2, lost-1)
				if err := re2.Compact(); err != nil { // at the lost epoch: the corrupt file's name
					t.Fatal(err)
				}
				if got := re2.Shard(0).SegmentEpoch(); got != lost {
					t.Fatalf("shard 0 checkpointed at epoch %d, want %d", got, lost)
				}
				writeUntil(re2, lost+2)
				// Crash again: the checkpoint at the lost epoch is the one found.
				re3, rec3, err := shard.Open(dir, cat, acc, shard.Options{Shards: p})
				if err != nil {
					t.Fatalf("third reopen: %v", err)
				}
				defer re3.Close()
				if rec3.GapRecords != 0 || len(rec3.CorruptSegments) != 0 {
					t.Fatalf("third reopen: %d gap records, corrupt segments %v; want none", rec3.GapRecords, rec3.CorruptSegments)
				}
				if got := re3.Shard(0).SegmentEpoch(); got != lost {
					t.Fatalf("third reopen resumed shard 0 from epoch %d, want the checkpoint at %d", got, lost)
				}
				assertSameShardState(t, re3, re2, true)
			})
		}
	}
}

// TestOpenRefusesASingleLiveStoreDirectory: an older build's durable live
// store kept its checkpoint segments and its log at the directory's root,
// with no manifest. Open and New name that layout and refuse it — this
// build opens only sharded directories — and leave the directory as it
// was.
func TestOpenRefusesASingleLiveStoreDirectory(t *testing.T) {
	dir := t.TempDir()
	cat, acc, db := scene(t, 4, 4)
	if err := db.EnsureIndexes(acc); err != nil {
		t.Fatal(err)
	}
	if _, err := segment.Write(dir, db, acc, 0); err != nil {
		t.Fatal(err)
	}
	w, _, err := wal.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(wal.Record{Kind: wal.RecBatch, Epoch: 1, Ops: shardBatches()[0]}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	refusedByName := func(err error) bool {
		return err != nil && strings.Contains(err.Error(), "single live store") && strings.Contains(err.Error(), "only sharded directories")
	}
	if _, _, err := shard.Open(dir, cat, acc, shard.Options{Shards: 1}); !refusedByName(err) {
		t.Fatalf("Open of a single live store's directory = %v, want it refused by name", err)
	}
	if _, err := shard.New(db, acc, shard.Options{Shards: 1, Dir: dir}); !refusedByName(err) {
		t.Fatalf("New on a single live store's directory = %v, want it refused by name", err)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("the refused Open left %d entries in the directory, want the %d it found", len(after), len(before))
	}
}
