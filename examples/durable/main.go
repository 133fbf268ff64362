// Durable: surviving a crash without giving up a single committed write.
//
// The sharded example's store lives only in memory — restart the process
// and the data is gone. This walkthrough makes the same social store
// durable and then kills it mid-write:
//
//   - the store keeps one write-ahead log: a batch — every shard's part of
//     it in one record — is fsynced to it *before* any shard publishes,
//     so "the client saw it commit" implies "it is on disk", on every
//     shard it touched;
//   - a checkpoint (Close, or live compaction) seals every shard into
//     segment files and truncates the log; recovery loads each shard's
//     newest valid checkpoint and replays only the log's tail;
//   - a torn final record — the half-written frame a crash mid-append
//     leaves behind — fails its CRC and is dropped: the batch it held is
//     lost on every shard, never half-applied.
//
// The crash here is injected deterministically with the WAL's fail-point
// hook (the same one the crash-recovery property tests use): the next
// append writes only a prefix of its frame and skips the fsync, exactly
// what power loss mid-write leaves behind.
//
// Run with: go run ./examples/durable
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"bcq"
	"bcq/internal/wal"
)

const ddl = `
relation in_album(photo_id, album_id)
relation friends(user_id, friend_id)

constraint in_album: (album_id) -> (photo_id, 1000)
constraint friends: (user_id) -> (friend_id, 5000)
`

const q0 = `
query Q0:
select f.friend_id
from friends as f
where f.user_id = ?
`

func tup(vals ...string) bcq.Tuple {
	t := make(bcq.Tuple, len(vals))
	for i, v := range vals {
		t[i] = bcq.Str(v)
	}
	return t
}

func main() {
	cat, acc, err := bcq.ParseDDL(ddl)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "bcq-durable-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Seed a durable store: ShardOptions.Dir writes each shard's base as
	// an epoch-0 checkpoint segment and opens the store's WAL; the
	// manifest records the shard count and partition placements.
	db := bcq.NewDatabase(cat)
	if err := db.Insert("in_album", tup("p1", "a0")); err != nil {
		log.Fatal(err)
	}
	ss, err := bcq.NewShardedDatabase(db, acc, bcq.ShardOptions{Shards: 2, Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seeded durable store in %s (P = %d)\n", dir, ss.NumShards())

	// Two batches commit normally: one WAL append + fsync for the batch,
	// then every shard it touched publishes.
	for _, batch := range [][]bcq.LiveOp{
		{bcq.InsertOp("friends", tup("u0", "u1")), bcq.InsertOp("in_album", tup("p2", "a0"))},
		{bcq.InsertOp("friends", tup("u0", "u2"))},
	} {
		if err := ss.Apply(batch); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("committed 2 batches (3 ops), |D| = %d\n", ss.NumTuples())

	// Crash mid-write: arm the store log's fail point so the next append
	// leaves a 7-byte torn frame and no fsync, then abandon the store
	// without Close — the process is "dead". Whichever shards the batch
	// touches, none of it survives.
	ss.WAL().SetFailPoint(1, 7)
	err = ss.Apply([]bcq.LiveOp{bcq.InsertOp("friends", tup("u9", "u8")), bcq.InsertOp("in_album", tup("p3", "a1"))})
	if !errors.Is(err, wal.ErrInjectedCrash) {
		log.Fatalf("expected the injected crash, got %v", err)
	}
	fmt.Printf("crashed mid-append: %v\n\n", err)

	// Recovery: each shard loads its checkpoint; the log drops the torn
	// tail record (it fails its CRC) and replays the committed tail,
	// each sub-batch on its shard through the normal admission path.
	re, rec, err := bcq.OpenShardedDatabase(dir, cat, acc, bcq.ShardOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d WAL ops replayed, %d torn records dropped, |D| = %d\n",
		rec.ReplayedOps, rec.TruncatedRecords, re.NumTuples())

	eng, err := bcq.NewShardedEngine(re, bcq.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	prep, err := eng.Prepare(q0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := prep.Exec(bcq.Str("u0"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q0(u0) = %v — every committed write survived; the torn one never half-applied\n\n", res.Tuples)

	// A clean shutdown checkpoints: Close seals each shard's state into a
	// segment and truncates the WAL, so the next open replays nothing.
	if err := re.Close(); err != nil {
		log.Fatal(err)
	}
	re2, rec2, err := bcq.OpenShardedDatabase(dir, cat, acc, bcq.ShardOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer re2.Close()
	fmt.Printf("clean restart: %d WAL ops replayed (checkpoint carries everything), |D| = %d\n",
		rec2.ReplayedOps, re2.NumTuples())
}
