package live_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// repeatScene is a base whose pairs repeat. Under r: a → (b, 3) the pair
// (x1, y1) occurs twice, (x1, y2) three times — once as an exact
// duplicate, which repeats under r: {a, b} → (c, 8) too — and (x2, y1)
// twice, its witness (x2, y1, w) the tuple the test later deletes. audit
// has no constraint until the test extends the schema over it.
func repeatScene(t *testing.T) (*schema.Catalog, *schema.AccessSchema, *storage.Database) {
	t.Helper()
	cat := schema.MustCatalog(
		schema.MustRelation("r", "a", "b", "c"),
		schema.MustRelation("audit", "who", "what"),
	)
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 3),
		schema.MustAccessConstraint("r", []string{"a", "b"}, []string{"c"}, 8),
	)
	db := storage.NewDatabase(cat)
	for _, row := range [][]string{
		{"r", "x1", "y1", "c0"},
		{"r", "x2", "y1", "w"},
		{"r", "x1", "y2", "c0"},
		{"r", "x3", "y1", "c0"},
		{"audit", "u", "login"},
		{"r", "x1", "y1", "c1"},
		{"r", "x4", "y3", "c0"},
		{"r", "x1", "y2", "c1"},
		{"audit", "v", "login"},
		{"r", "x2", "y1", "c0"},
		{"r", "x1", "y2", "c0"},
		{"audit", "u", "login"},
		{"r", "x5", "y1", "c2"},
	} {
		tu := make(value.Tuple, len(row)-1)
		for i, v := range row[1:] {
			tu[i] = value.Str(v)
		}
		if err := db.Insert(row[0], tu); err != nil {
			t.Fatal(err)
		}
	}
	return cat, acc, db
}

// witness is the tuple whose deletion re-points the (x2, y1) entry.
var witness = value.Tuple{value.Str("x2"), value.Str("y1"), value.Str("w")}

// extensions widen the schema over data that repeats: twice a relation
// covered already — the second keeps r's shard key, so a sharded store
// takes it too — and once the constraint-less one.
var extensions = []schema.AccessConstraint{
	schema.MustAccessConstraint("r", []string{"c"}, []string{"a", "b"}, 10),
	schema.MustAccessConstraint("r", []string{"a", "c"}, []string{"b"}, 10),
	schema.MustAccessConstraint("audit", []string{"who"}, []string{"what"}, 4),
}

// TestLedgerRightAfterOpen holds the ledger that every way of making a
// store reads off its indexes — live.New, Compact and ExtendAccess in
// memory, and shard.New, shard.Open of a first and of a compacted
// segment, shard.Compact and a sharded extension at P ∈ {1, 2}, the
// durable stores — to the per-tuple recount, before any commit could
// repair it.
func TestLedgerRightAfterOpen(t *testing.T) {
	cat, acc, base := repeatScene(t)
	st, err := live.New(base, acc, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	live.CheckLedger(t, st, "live.New")
	if err := st.Delete("r", witness); err != nil {
		t.Fatal(err)
	}
	live.CheckLedger(t, st, "witness deleted")
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	live.CheckLedger(t, st, "Compact")
	for _, ac := range extensions {
		if err := st.ExtendAccess(ac); err != nil {
			t.Fatal(err)
		}
		live.CheckLedger(t, st, "ExtendAccess "+ac.String())
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	live.CheckLedger(t, st, "Compact of the extended store")

	for _, p := range []int{1, 2} {
		check := func(ss *shard.Store, stage string) {
			t.Helper()
			for i := range ss.NumShards() {
				live.CheckLedger(t, ss.Shard(i), fmt.Sprintf("P=%d shard %d: %s", p, i, stage))
			}
		}
		_, _, base := repeatScene(t)
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("sharded-%d", p))
		ss, err := shard.New(base, acc, shard.Options{Shards: p, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		check(ss, "shard.New")
		reopen := func(stage string) {
			t.Helper()
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			if ss, _, err = shard.Open(dir, cat, acc, shard.Options{}); err != nil {
				t.Fatal(err)
			}
			check(ss, stage)
		}
		reopen("shard.Open of the first segment")
		if err := ss.Delete("r", witness); err != nil {
			t.Fatal(err)
		}
		if err := ss.Compact(); err != nil {
			t.Fatal(err)
		}
		check(ss, "shard.Compact")
		reopen("shard.Open of the compacted segment")
		if err := ss.ExtendAccess(extensions[1]); err != nil {
			t.Fatal(err)
		}
		check(ss, "shard ExtendAccess")
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
