// Sharded: scaling the store out without giving up exactness.
//
// The streaming example's social network outgrows one writer: tags,
// albums and friendships arrive from many fronts at once. Access
// constraints hand the store a free shard key — every bounded probe
// carries a concrete X-binding, so hash-partitioning each relation on
// its constraint's X routes every probe to exactly one shard:
//
//   - in_album is partitioned by album_id, friends by user_id, tagging
//     by (photo_id, taggee_id): every index group lives whole on one
//     shard, so scatter-gather answers are byte-identical to a single
//     store — same tuples, same access counts, same |D_Q|;
//   - that is the only placement rule: a relation with no such key (or
//     an empty one, as a domain constraint ∅ → (Y, N) gives) hashes on
//     the empty key and lands whole on one shard, and a relation with no
//     constraints hashes on all its attributes — a tuple's shard depends
//     on its content alone;
//   - each shard is its own live store: admission checks, copy-on-write
//     index maintenance and snapshot publication run under independent
//     per-shard writer locks, so ingest scales with the shard count;
//   - a reader pins one epoch vector atomically and evaluates against
//     that consistent cut, unaffected by concurrent commits anywhere.
//
// Run with: go run ./examples/sharded
package main

import (
	"fmt"
	"log"

	"bcq"
)

const ddl = `
relation in_album(photo_id, album_id)
relation friends(user_id, friend_id)
relation tagging(photo_id, tagger_id, taggee_id)

constraint in_album: (album_id) -> (photo_id, 1000)
constraint friends: (user_id) -> (friend_id, 5000)
constraint tagging: (photo_id, taggee_id) -> (tagger_id, 1)
`

const q0 = `
query Q0:
select t1.photo_id
from in_album as t1, friends as t2, tagging as t3
where t1.album_id = ? and t2.user_id = ?
  and t1.photo_id = t3.photo_id
  and t3.tagger_id = t2.friend_id
  and t3.taggee_id = t2.user_id
`

func str(s string) bcq.Value { return bcq.Str(s) }

func tup(vals ...string) bcq.Tuple {
	t := make(bcq.Tuple, len(vals))
	for i, v := range vals {
		t[i] = str(v)
	}
	return t
}

func main() {
	cat, acc, err := bcq.ParseDDL(ddl)
	if err != nil {
		log.Fatal(err)
	}
	db := bcq.NewDatabase(cat)
	seed := [][3]string{
		{"in_album", "p1", "a0"}, {"in_album", "p2", "a0"}, {"in_album", "p3", "a1"},
		{"friends", "u0", "u1"}, {"friends", "u0", "u2"}, {"friends", "u1", "u2"},
	}
	for _, s := range seed {
		if err := db.Insert(s[0], tup(s[1], s[2])); err != nil {
			log.Fatal(err)
		}
	}
	for _, s := range [][4]string{
		{"tagging", "p1", "u1", "u0"}, {"tagging", "p2", "u2", "u0"}, {"tagging", "p3", "u2", "u1"},
	} {
		if err := db.Insert(s[0], tup(s[1], s[2], s[3])); err != nil {
			log.Fatal(err)
		}
	}

	// Partition into 4 shards; the shard keys come from the constraints.
	sharded, err := bcq.NewShardedDatabase(db, acc, bcq.ShardOptions{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("placements:")
	for _, rs := range cat.Relations() {
		pl, err := sharded.PlacementOf(rs.Name())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %s\n", rs.Name(), pl)
	}

	eng, err := bcq.NewShardedEngine(sharded, bcq.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	prep, err := eng.Prepare(q0)
	if err != nil {
		log.Fatal(err)
	}

	// Scatter-gather execution: each probe routes to the shard owning its
	// index group; results are byte-identical to a single store.
	res, err := prep.Exec(str("a0"), str("u0"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ0(a0, u0) = %v — fetched %d tuples across %d shards\n",
		res.Tuples, res.Stats.TuplesFetched, sharded.NumShards())

	// Shard-parallel ingest: one batch, routed by content, committed
	// under independent per-shard locks.
	batch := []bcq.LiveOp{
		bcq.InsertOp("in_album", tup("p9", "a0")),
		bcq.InsertOp("tagging", tup("p9", "u1", "u0")),
		bcq.InsertOp("in_album", tup("p8", "a7")),
		bcq.InsertOp("friends", tup("u7", "u0")),
	}
	if err := sharded.Apply(batch); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplied a %d-op batch; shard balance now:", len(batch))
	for s, n := range sharded.View().ShardSizes() {
		fmt.Printf(" [%d] %d", s, n)
	}
	fmt.Println()

	// A pinned epoch vector is a consistent cut: this view sees the whole
	// batch; a view pinned before it would see none of it.
	view := sharded.View()
	res, err = prep.ExecOn(view, str("a0"), str("u0"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQ0(a0, u0) on the pinned vector %v = %v\n", view.Epochs(), res.Tuples)

	// The bounded-access guarantee survives partitioning: same fetch
	// count no matter how many shards (or how much data) there are.
	fmt.Printf("fetched %d tuples — flat in |D| and in P\n", res.Stats.TuplesFetched)
}
