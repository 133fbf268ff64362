package shard_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// placementScene is one relation of each kind of shard key: part is
// partitioned by (k), dom takes the empty key of its domain constraint
// ∅ → (e, 3) and is pinned, and free has no constraints, so its key is
// all its attributes. Both bounds are small enough for random inserts
// to break them.
func placementScene(t *testing.T) (*schema.Catalog, *schema.AccessSchema) {
	t.Helper()
	cat, err := schema.NewCatalog(
		mustRel(t, "part", "k", "v"),
		mustRel(t, "dom", "d", "e"),
		mustRel(t, "free", "f", "g"),
	)
	if err != nil {
		t.Fatal(err)
	}
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("part", []string{"k"}, []string{"v"}, 2),
		schema.MustAccessConstraint("dom", nil, []string{"e"}, 3),
	)
	return cat, acc
}

var placementRels = []string{"part", "dom", "free"}

// placementPool is a tiny pool of tuples per relation, so that most ops
// of a batch hit a tuple another op of the batch or of an earlier one
// also holds.
func placementPool() map[string][]value.Tuple {
	pool := make(map[string][]value.Tuple)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			pool["part"] = append(pool["part"], value.Tuple{str(fmt.Sprintf("k%d", i)), str(fmt.Sprintf("v%d", j))})
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			pool["dom"] = append(pool["dom"], value.Tuple{str(fmt.Sprintf("d%d", i)), str(fmt.Sprintf("e%d", j))})
		}
	}
	for i := 0; i < 3; i++ {
		pool["free"] = append(pool["free"], value.Tuple{str(fmt.Sprintf("f%d", i)), str("g")})
	}
	return pool
}

// TestContentAddressedPlacementProperty: every tuple goes to the shard
// its shard key hashes to, so all the ops of a batch on equal tuples, and
// on tuples of one index group, meet on one shard in batch order. Random
// batches over a partitioned, a pinned and a constraint-less relation,
// heavy in duplicates and in an insert followed by a delete of the same
// tuple, must leave the sharded store with the live multiset and the
// quarantine a single live store reaches on the same batches, in Strict
// and Permissive mode at P ∈ {1, 2, 3}; no tuple may sit on two shards.
//
// A batch fails on the sharded store exactly when it fails on the single
// store, with live.ErrNoSuchTuple or live.ErrBound, and then leaves both
// as they were: a sharded batch commits on every shard or on none.
func TestContentAddressedPlacementProperty(t *testing.T) {
	cat, acc := placementScene(t)
	pool := placementPool()
	for _, mode := range []live.Mode{live.Strict, live.Permissive} {
		for _, shards := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/P=%d", mode, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7 + shards)))
				ss, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: shards, Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				ls, err := live.New(storage.NewDatabase(cat), acc, live.Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}

				accepted, failed := 0, 0
				for batch := 0; batch < 500; batch++ {
					var ops []live.Op
					for n := 1 + rng.Intn(8); len(ops) < n; {
						rel := placementRels[rng.Intn(len(placementRels))]
						tu := pool[rel][rng.Intn(len(pool[rel]))]
						switch rng.Intn(5) {
						case 0, 1:
							ops = append(ops, live.Insert(rel, tu))
						case 2, 3:
							ops = append(ops, live.Delete(rel, tu))
						default:
							ops = append(ops, live.Insert(rel, tu), live.Delete(rel, tu))
						}
					}

					errS := ss.Apply(ops)
					_, errL := ls.Apply(ops)
					if (errS == nil) != (errL == nil) {
						t.Fatalf("batch %d %v: sharded err %v, single err %v", batch, ops, errS, errL)
					}
					if errS != nil && !errors.Is(errS, live.ErrNoSuchTuple) && !errors.Is(errS, live.ErrBound) {
						t.Fatalf("batch %d: unexpected failure class %v", batch, errS)
					}
					checkOneShardPerTuple(t, ss)
					if errS != nil {
						failed++
					} else {
						accepted++
					}
					for _, rel := range placementRels {
						got := sortedTuples(t, relTuples(t, ss, rel))
						want := sortedTuples(t, snapTuples(t, ls, rel))
						if got != want {
							t.Fatalf("batch %d: %s diverged\n sharded: %s\n single:  %s\n ops: %v",
								batch, rel, got, want, ops)
						}
					}
					if got, want := quarantined(ss.Quarantine()), quarantined(ls.Quarantine()); got != want {
						t.Fatalf("batch %d: quarantine diverged\n sharded: %s\n single:  %s", batch, got, want)
					}
				}
				if ss.NumTuples() == 0 || accepted < 120 {
					t.Errorf("workload too weak: %d tuples left, %d batches accepted", ss.NumTuples(), accepted)
				}
				if mode == live.Strict && failed == 0 {
					t.Error("no Strict batch failed: the workload never deleted an absent tuple or broke a bound")
				}
				if mode == live.Permissive && len(ls.Quarantine()) == 0 {
					t.Error("nothing was quarantined: the workload never deleted an absent tuple or broke a bound")
				}
			})
		}
	}
}

// checkOneShardPerTuple fails when equal tuples of a relation live on two
// shards, or a pinned relation on more than one.
func checkOneShardPerTuple(t *testing.T, ss *shard.Store) {
	t.Helper()
	for _, rel := range placementRels {
		home := make(map[string]int)
		for s := 0; s < ss.NumShards(); s++ {
			ts, err := ss.Shard(s).Snapshot().Tuples(rel)
			if err != nil {
				t.Fatal(err)
			}
			for _, tu := range ts {
				key := tu.String()
				if rel == "dom" {
					key = ""
				}
				if h, ok := home[key]; ok && h != s {
					t.Fatalf("%s: %s on shards %d and %d", rel, tu, h, s)
				}
				home[key] = s
			}
		}
	}
}

// TestAbsentDeleteFailsOnItsOwnShard: a delete of a tuple no shard holds
// goes to the shard the tuple hashes to and fails there like any other
// op. Strict returns live.ErrNoSuchTuple and the failing sub-batch
// leaves every shard unchanged — the batch's insert on another shard
// does not commit either; Permissive quarantines the delete on its own
// shard and commits the insert. The view's NonEmpty follows the
// constraint-less relation through it.
func TestAbsentDeleteFailsOnItsOwnShard(t *testing.T) {
	cat, acc := placementScene(t)
	for _, mode := range []live.Mode{live.Strict, live.Permissive} {
		t.Run(mode.String(), func(t *testing.T) {
			ss, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: 3, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			nonEmpty := func() bool {
				t.Helper()
				ok, err := ss.View().NonEmpty("free")
				if err != nil {
					t.Fatal(err)
				}
				return ok
			}
			if nonEmpty() {
				t.Fatal("empty relation reported non-empty")
			}
			// Find two constraint-less tuples owned by different shards by
			// inserting them and asking which shard took each.
			var gone, kept value.Tuple
			goneOn, keptOn := -1, -1
			for i := 0; keptOn < 0; i++ {
				tu := value.Tuple{str(fmt.Sprintf("f%d", i)), str("g")}
				if err := ss.Insert("free", tu); err != nil {
					t.Fatal(err)
				}
				s := holder(t, ss, "free", tu)
				switch {
				case goneOn < 0:
					gone, goneOn = tu, s
				case s != goneOn:
					kept, keptOn = tu, s
				}
				if err := ss.Delete("free", tu); err != nil {
					t.Fatal(err)
				}
			}

			if nonEmpty() {
				t.Fatal("relation non-empty after deleting every tuple")
			}

			epochs := ss.View().Epochs()
			err = ss.Apply([]live.Op{live.Insert("free", kept), live.Delete("free", gone)})
			if mode == live.Strict {
				if !errors.Is(err, live.ErrNoSuchTuple) {
					t.Fatalf("absent delete: got %v, want ErrNoSuchTuple", err)
				}
				if got := ss.View().Epochs(); !reflect.DeepEqual(got, epochs) || nonEmpty() || ss.NumTuples() != 0 {
					t.Fatalf("a failed Strict batch published: epochs %v → %v, %d tuples", epochs, got, ss.NumTuples())
				}
				return
			}
			if err != nil {
				t.Fatalf("absent delete in Permissive mode: %v", err)
			}
			if s := holder(t, ss, "free", kept); s != keptOn || !nonEmpty() {
				t.Fatalf("%s on shard %d, want %d", kept, s, keptOn)
			}
			q := ss.Shard(goneOn).Quarantine()
			if len(q) != 1 || q[0].Op.Kind != live.OpDelete || !q[0].Op.Tuple.Equal(gone) {
				t.Fatalf("shard %d quarantine = %v, want the delete of %s", goneOn, q, gone)
			}
			if n := len(ss.Quarantine()); n != 1 {
				t.Fatalf("store quarantine holds %d ops, want 1", n)
			}
		})
	}
}

// TestInBatchInsertDeleteMeetOnOneShard: an insert and a delete of the
// same tuple in one batch reach the shard that tuple hashes to, in batch
// order, so the pair nets to zero; two copies of a tuple inserted in one
// batch sit on one shard, and two deletes of it in a later batch both
// find a copy there.
func TestInBatchInsertDeleteMeetOnOneShard(t *testing.T) {
	cat, acc := placementScene(t)
	ss, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.Insert("free", value.Tuple{str("warm"), str("g")}); err != nil {
		t.Fatal(err)
	}
	before := ss.NumTuples()

	for _, rel := range []string{"free", "part"} {
		tu := value.Tuple{str("t"), str("g")}
		if err := ss.Apply([]live.Op{live.Insert(rel, tu), live.Delete(rel, tu)}); err != nil {
			t.Fatalf("%s: in-batch insert+delete: %v", rel, err)
		}
		if got := ss.NumTuples(); got != before {
			t.Errorf("%s: in-batch insert+delete left |D| = %d, want %d", rel, got, before)
		}

		if err := ss.Apply([]live.Op{live.Insert(rel, tu), live.Insert(rel, tu)}); err != nil {
			t.Fatal(err)
		}
		s := holder(t, ss, rel, tu)
		ts, err := ss.Shard(s).Snapshot().Tuples(rel)
		if err != nil {
			t.Fatal(err)
		}
		copies := 0
		for _, x := range ts {
			if x.Equal(tu) {
				copies++
			}
		}
		if copies != 2 {
			t.Fatalf("%s: shard %d holds %d copies of %s, want 2", rel, s, copies, tu)
		}
		if err := ss.Apply([]live.Op{live.Delete(rel, tu), live.Delete(rel, tu)}); err != nil {
			t.Fatalf("%s: double delete: %v", rel, err)
		}
		if got := ss.NumTuples(); got != before {
			t.Errorf("%s: double delete left |D| = %d, want %d", rel, got, before)
		}
	}
}

// holder returns the one shard holding tu, failing when none or several
// do.
func holder(t *testing.T, ss *shard.Store, rel string, tu value.Tuple) int {
	t.Helper()
	found := -1
	for s := 0; s < ss.NumShards(); s++ {
		ts, err := ss.Shard(s).Snapshot().Tuples(rel)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range ts {
			if x.Equal(tu) {
				if found >= 0 && found != s {
					t.Fatalf("%s: %s on shards %d and %d", rel, tu, found, s)
				}
				found = s
			}
		}
	}
	if found < 0 {
		t.Fatalf("%s: no shard holds %s", rel, tu)
	}
	return found
}

func relTuples(t *testing.T, ss *shard.Store, rel string) []value.Tuple {
	t.Helper()
	ts, err := ss.View().Tuples(rel)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func snapTuples(t *testing.T, ls *live.Store, rel string) []value.Tuple {
	t.Helper()
	ts, err := ls.Snapshot().Tuples(rel)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// sortedTuples renders a multiset of tuples order-independently.
func sortedTuples(t *testing.T, ts []value.Tuple) string {
	t.Helper()
	keys := make([]string, len(ts))
	for i, tu := range ts {
		keys[i] = tu.String()
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}

// quarantined renders a quarantine's ops order-independently: shards
// list theirs in shard order.
func quarantined(q []live.Quarantined) string {
	keys := make([]string, len(q))
	for i, e := range q {
		keys[i] = fmt.Sprintf("%v %s %s", e.Op.Kind, e.Op.Rel, e.Op.Tuple)
	}
	sort.Strings(keys)
	return fmt.Sprint(keys)
}
