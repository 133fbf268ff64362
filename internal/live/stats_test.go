package live

import (
	"math/rand"
	"reflect"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/stats"
	"bcq/internal/value"
)

// recountCards is the from-scratch truth: freeze the current snapshot
// into a sealed database (rebuilding every index under the snapshot's
// schema) and read the indexes' shapes.
func recountCards(t *testing.T, st *Store) stats.Snapshot {
	t.Helper()
	frozen, err := st.Snapshot().Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return frozen.CardStats()
}

// checkCards requires the incrementally maintained statistics to equal
// the recount exactly — groups, entries, max group size and row counts —
// whether read as a snapshot or one constraint at a time (ACCard).
func checkCards(t *testing.T, st *Store, stage string) {
	t.Helper()
	got := st.CardStats()
	want := recountCards(t, st)
	if !reflect.DeepEqual(got.ACs, want.ACs) {
		t.Fatalf("%s: constraint cards diverged from recount\n got:  %v\n want: %v", stage, got.ACs, want.ACs)
	}
	for key, card := range want.ACs {
		if c, ok := st.ACCard(key); !ok || c != card {
			t.Fatalf("%s: ACCard(%s) = %+v, %v; the recount says %+v", stage, key, c, ok, card)
		}
	}
	if _, ok := st.ACCard("no|such|constraint|1"); ok {
		t.Fatalf("%s: ACCard found a constraint the store does not have", stage)
	}
	if !reflect.DeepEqual(got.Rels, want.Rels) {
		t.Fatalf("%s: relation cards diverged from recount\n got:  %v\n want: %v", stage, got.Rels, want.Rels)
	}
}

// TestCardStatsConsistentWithRecount walks the statistics through every
// write path — bootstrap, inserts (fresh and duplicate), deletes
// (witness, duplicate, last-occurrence), Compact and ExtendAccess — and
// cross-checks the incremental counters against a from-scratch recount
// at each stage.
func TestCardStatsConsistentWithRecount(t *testing.T) {
	st := liveSocial(t, Options{})
	checkCards(t, st, "bootstrap")

	// Fresh entries, a new group, and a duplicate of a live pair (which
	// must not move any counter).
	if _, err := st.Apply([]Op{
		Insert("in_album", strs("p9", "a2")),
		Insert("friends", strs("u2", "f7")),
		Insert("friends", strs("u0", "f1")), // duplicate pair
	}); err != nil {
		t.Fatal(err)
	}
	checkCards(t, st, "insert")

	// Delete a duplicate (pair survives), then the last occurrence (pair
	// dies and its group shrinks), then empty a whole group.
	if _, err := st.Apply([]Op{Delete("friends", strs("u0", "f1"))}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply([]Op{Delete("friends", strs("u0", "f1"))}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply([]Op{Delete("friends", strs("u1", "f9"))}); err != nil {
		t.Fatal(err)
	}
	checkCards(t, st, "delete")

	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	checkCards(t, st, "compact")

	// Widen the schema at runtime: the new constraint's card must match a
	// rebuild from the first epoch it exists in.
	ext := schema.MustAccessConstraint("tagging", []string{"taggee_id"}, []string{"photo_id", "tagger_id"}, 100)
	if err := st.ExtendAccess(ext); err != nil {
		t.Fatal(err)
	}
	checkCards(t, st, "extend")

	// Churn after the extension maintains the extended card too.
	if _, err := st.Apply([]Op{
		Insert("tagging", strs("p9", "f7", "u2")),
		Delete("tagging", strs("p1", "f1", "u0")),
	}); err != nil {
		t.Fatal(err)
	}
	checkCards(t, st, "post-extend churn")
}

// TestCardStatsConsistentUnderRandomChurn hammers a store with a seeded
// random op stream — inserts of random tuples, deletes of random pool
// tuples, periodic compactions — cross-checking the statistics and the
// ledger against a recount after every commit. Each batch commits what
// the store admits of it (admitted), so every committed state is valid
// and every stage comparable.
func TestCardStatsConsistentUnderRandomChurn(t *testing.T) {
	st := liveSocial(t, Options{})
	rng := rand.New(rand.NewSource(7))
	photo := func() value.Value { return value.Str([]string{"p1", "p2", "p3", "p4", "p9"}[rng.Intn(5)]) }
	album := func() value.Value { return value.Str([]string{"a0", "a1", "a2"}[rng.Intn(3)]) }
	user := func() value.Value { return value.Str([]string{"u0", "u1", "u2"}[rng.Intn(3)]) }
	friend := func() value.Value { return value.Str([]string{"f1", "f2", "f7", "f9"}[rng.Intn(4)]) }

	for round := 0; round < 40; round++ {
		var ops []Op
		for k := 0; k < 8; k++ {
			var op Op
			switch rng.Intn(4) {
			case 0:
				op = Insert("in_album", value.Tuple{photo(), album()})
			case 1:
				op = Insert("friends", value.Tuple{user(), friend()})
			case 2:
				op = Delete("in_album", value.Tuple{photo(), album()})
			default:
				op = Delete("friends", value.Tuple{user(), friend()})
			}
			ops = append(ops, op)
		}
		admitted(t, applyTo(st), ops)
		checkLedger(t, st, "churn round")
		if round%10 == 9 {
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			checkLedger(t, st, "churn compact")
		}
	}
}
