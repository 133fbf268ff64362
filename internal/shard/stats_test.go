package shard_test

import (
	"fmt"
	"reflect"
	"testing"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/value"
)

// checkShardCards requires the sharded store's merged cardinality
// statistics to equal a from-scratch recount: freeze the current view
// into one sealed database and read its index shapes. Exactness of the
// merge rides on the placement invariant (groups whole on one shard). The
// per-constraint read (ACCard) must merge to the same cards.
func checkShardCards(t *testing.T, ss *shard.Store, stage string) {
	t.Helper()
	got := ss.CardStats()
	frozen, err := ss.View().Freeze()
	if err != nil {
		t.Fatal(err)
	}
	want := frozen.CardStats()
	if !reflect.DeepEqual(got.ACs, want.ACs) {
		t.Fatalf("%s: constraint cards diverged from recount\n got:  %v\n want: %v", stage, got.ACs, want.ACs)
	}
	for key, card := range want.ACs {
		if c, ok := ss.ACCard(key); !ok || c != card {
			t.Fatalf("%s: ACCard(%s) = %+v, %v; the recount says %+v", stage, key, c, ok, card)
		}
	}
	if !reflect.DeepEqual(got.Rels, want.Rels) {
		t.Fatalf("%s: relation cards diverged from recount\n got:  %v\n want: %v", stage, got.Rels, want.Rels)
	}
}

// TestShardCardStatsConsistentWithRecount drives the sharded store
// through ingest, deletes, Compact and a shard-consistent ExtendAccess
// at several shard counts, cross-checking the merged statistics against
// a single-database recount after every stage.
func TestShardCardStatsConsistentWithRecount(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			cat, acc, db := scene(t, 4, 6)
			_ = cat
			ss, err := shard.New(db, acc, shard.Options{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			checkShardCards(t, ss, "bootstrap")

			var ops []live.Op
			for a := 0; a < 4; a++ {
				for k := 0; k < 3; k++ {
					ops = append(ops, live.Insert("in_album",
						strsTuple(fmt.Sprintf("np%d_%d", a, k), fmt.Sprintf("a%d", a))))
				}
			}
			if err := ss.Apply(ops); err != nil {
				t.Fatal(err)
			}
			checkShardCards(t, ss, "ingest")

			if err := ss.Apply([]live.Op{
				live.Delete("in_album", strsTuple("np0_0", "a0")),
				live.Delete("in_album", strsTuple("np1_1", "a1")),
			}); err != nil {
				t.Fatal(err)
			}
			checkShardCards(t, ss, "delete")

			if err := ss.Compact(); err != nil {
				t.Fatal(err)
			}
			checkShardCards(t, ss, "compact")

			// Shard-consistent schema extension. The constraint's X must
			// contain the relation's shard key (in_album partitions by
			// album_id); differing N makes it a distinct constraint from
			// the seed schema's.
			ext := schema.MustAccessConstraint("in_album", []string{"album_id"}, []string{"photo_id"}, 2000)
			if err := ss.ExtendAccess(ext); err != nil {
				t.Fatal(err)
			}
			checkShardCards(t, ss, "extend")

			if err := ss.Apply([]live.Op{
				live.Insert("in_album", strsTuple("np9", "a2")),
				live.Delete("in_album", strsTuple("np2_2", "a2")),
			}); err != nil {
				t.Fatal(err)
			}
			checkShardCards(t, ss, "post-extend churn")
		})
	}
}

// strsTuple builds a string tuple (the scene loader's value convention).
func strsTuple(vals ...string) value.Tuple {
	tu := make(value.Tuple, len(vals))
	for i, v := range vals {
		tu[i] = value.Str(v)
	}
	return tu
}
