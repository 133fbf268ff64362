package shard_test

import (
	"runtime/debug"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// TestBootstrapAllocationsAreFlat is live's test of the same name at
// P = 1: over an indexed base, shard.New allocates the same whatever the
// relation's size when the repeated pairs are the same. The one shard
// takes the caller's base as it stands — it neither copies a tuple nor
// rebuilds an index — so set-up costs what live.New costs.
func TestBootstrapAllocationsAreFlat(t *testing.T) {
	cat := schema.MustCatalog(schema.MustRelation("r", "a", "b", "c"))
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 2),
		schema.MustAccessConstraint("r", []string{"a", "b"}, []string{"c"}, 4),
	)
	base := func(n int) *storage.Database {
		db := storage.NewDatabase(cat)
		add := func(a, b, c int) {
			if err := db.Insert("r", value.Tuple{value.Int(int64(a)), value.Int(int64(b)), value.Int(int64(c))}); err != nil {
				t.Fatal(err)
			}
		}
		for i := range n {
			add(i/2, i%2, i)
		}
		for k := range 6 { // repeats (a, b) with a new c, and then the whole tuple
			add(k, k%2, -1-k)
			add(k, k%2, 2*k+k%2)
		}
		if err := db.EnsureIndexes(acc); err != nil {
			t.Fatal(err)
		}
		return db
	}
	// A collection during the count can add an object of the runtime's
	// own; with the collector off the count is the store's alone.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(db *storage.Database) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := shard.New(db, acc, shard.Options{Shards: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := base(1000), base(4000)
	a, b := allocs(small), allocs(large)
	if a != b {
		t.Errorf("shard.New at P = 1 allocates %v objects over %d tuples and %v over %d with the same repeats", a, small.NumTuples(), b, large.NumTuples())
	}
	t.Logf("shard.New at P = 1: %v objects over %d tuples, %v over %d", a, small.NumTuples(), b, large.NumTuples())
	ss, err := shard.New(large, acc, shard.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ss.Shard(0).Base() != large {
		t.Error("the one shard does not serve the caller's base")
	}
	if n := ss.NumTuples(); n != large.NumTuples() {
		t.Errorf("|D| = %d, the base holds %d", n, large.NumTuples())
	}
}
