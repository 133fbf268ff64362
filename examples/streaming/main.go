// Streaming: serving exact bounded answers while the data changes.
//
// The quickstart's social network goes live: tags and friendships keep
// streaming in while the platform serves "photos in album a in which
// user u was tagged by a friend". The writable store — a sharded store
// of one shard — makes that safe:
//
//   - every write batch is checked against the access schema, so the
//     platform limits (at most 4 photos per album here, so the demo can
//     hit the bound) stay true and every cached plan stays sound;
//   - readers pin an immutable cut per evaluation — a report opened
//     before a write batch keeps seeing the old data, with no locks in
//     either direction;
//   - the indices are maintained incrementally, so the query's tuple
//     accesses stay flat no matter how much the database grows.
//
// Run with: go run ./examples/streaming
package main

import (
	"errors"
	"fmt"
	"log"

	"bcq"
)

const ddl = `
relation in_album(photo_id, album_id)
relation friends(user_id, friend_id)
relation tagging(photo_id, tagger_id, taggee_id)

# Example 2's access schema, with a photos-per-album limit small enough
# to run into.
constraint in_album: (album_id) -> (photo_id, 4)
constraint friends: (user_id) -> (friend_id, 5000)
constraint tagging: (photo_id, taggee_id) -> (tagger_id, 1)
`

const q0 = `
query Q0:
select t1.photo_id
from in_album as t1, friends as t2, tagging as t3
where t1.album_id = 'a0'
  and t2.user_id = 'u0'
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

	// Load the initial state: album a0 = {p1, p2}; u0's friends = {f1};
	// p1 tagged by the friend f1, p2 by a stranger.
	db := bcq.NewDatabase(cat)
	seed := []struct {
		rel string
		t   bcq.Tuple
	}{
		{"in_album", tup("p1", "a0")},
		{"in_album", tup("p2", "a0")},
		{"friends", tup("u0", "f1")},
		{"tagging", tup("p1", "f1", "u0")},
		{"tagging", tup("p2", "s9", "u0")},
	}
	for _, s := range seed {
		if err := db.Insert(s.rel, s.t); err != nil {
			log.Fatal(err)
		}
	}

	ss, err := bcq.NewShardedDatabase(db, acc, bcq.ShardOptions{Shards: 1})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := bcq.NewShardedEngine(ss, bcq.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	prep, err := eng.Prepare(q0)
	if err != nil {
		log.Fatal(err)
	}
	answers := func(tag string) *bcq.Result {
		res, err := prep.Exec()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s answers=%v  (fetched %d tuples, epoch %d, |D|=%d)\n",
			tag, res.Tuples, res.Stats.TuplesFetched, ss.View().Epoch(), ss.NumTuples())
		return res
	}

	fmt.Println("— live serving —")
	answers("initial state:")

	// The base is sealed; direct inserts are refused with a typed error...
	if err := db.Insert("in_album", tup("p3", "a0")); !errors.Is(err, bcq.ErrSealed) {
		log.Fatalf("expected ErrSealed, got %v", err)
	}
	fmt.Println("\ndirect insert into the sealed base: rejected (ErrSealed) — writes go through the store")

	// ...while the store applies them as an atomic epoch.
	pinned := ss.View() // a report pinned before the write batch
	err = ss.Apply([]bcq.LiveOp{
		bcq.InsertOp("in_album", tup("p3", "a0")),
		bcq.InsertOp("tagging", tup("p3", "f1", "u0")),
	})
	if err != nil {
		log.Fatal(err)
	}
	answers("after live batch:")
	res, err := prep.ExecOn(pinned)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-28s answers=%v  (epoch %d — isolated from the batch)\n",
		"same query, pinned earlier:", res.Tuples, pinned.Epoch())

	// A write that would break an access constraint never commits: album
	// a0 holds p1, p2, p3 — two more photos would exceed the bound of 4,
	// and with it the soundness of every cached plan.
	fmt.Println("\n— schema enforcement —")
	err = ss.Apply([]bcq.LiveOp{
		bcq.InsertOp("in_album", tup("p4", "a0")),
		bcq.InsertOp("in_album", tup("p5", "a0")),
	})
	if errors.Is(err, bcq.ErrLiveBound) {
		fmt.Println("5th photo in album a0 rejected, whole batch rolled back:")
		fmt.Println("   ", err)
	} else {
		log.Fatalf("expected ErrLiveBound, got %v", err)
	}

	// Growth does not degrade reads: stream in duplicate engagement (the
	// same mechanism datagen scales |D| with) and watch the fetched-tuple
	// count hold still.
	fmt.Println("\n— bounded access under growth —")
	base := answers("before growth:")
	for round := 0; round < 3; round++ {
		var ops []bcq.LiveOp
		for i := 0; i < 2000; i++ {
			ops = append(ops, bcq.InsertOp("friends", tup("u0", "f1")))
			if len(ops) == 64 {
				if err := ss.Apply(ops); err != nil {
					log.Fatal(err)
				}
				ops = ops[:0]
			}
		}
		if len(ops) > 0 {
			if err := ss.Apply(ops); err != nil {
				log.Fatal(err)
			}
		}
		grown := answers(fmt.Sprintf("after +%dk duplicates:", 2*(round+1)))
		if grown.Stats.TuplesFetched != base.Stats.TuplesFetched {
			log.Fatalf("tuple accesses changed: %d → %d", base.Stats.TuplesFetched, grown.Stats.TuplesFetched)
		}
	}
	st := ss.IngestStats()
	fmt.Printf("\ningest: %d ops over %d epochs; reads stayed exact and flat throughout\n",
		st.OpsApplied, st.Epochs)
}
