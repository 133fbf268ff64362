package engine

import (
	"testing"

	"bcq/internal/datagen"
	"bcq/internal/live"
	"bcq/internal/shard"
)

// TestShardedDatabaseIsTheCurrentData: a sharded engine's Database is the
// store's current data, on a store built by shard.New and on one that
// shard.Open recovered from its directory, which never saw the database
// the store was first partitioned from.
func TestShardedDatabaseIsTheCurrentData(t *testing.T) {
	ds := datagen.Social()
	db := ds.MustBuild(1.0 / 32)
	loaded := db.NumTuples()
	gone := db.MustRelation("friends").Tuples[0]
	dir := t.TempDir()
	ss, err := shard.New(db, ds.Access, shard.Options{Shards: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, ss *shard.Store, want int64) {
		t.Helper()
		e, err := NewSharded(ss, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, view := e.Database().NumTuples(), ss.View().NumTuples(); got != view || got != want {
			t.Errorf("%s: Database() holds %d tuples, the view %d, want %d", name, got, view, want)
		}
	}
	check("fresh", ss, loaded)
	if err := ss.Apply([]live.Op{live.Delete("friends", gone)}); err != nil {
		t.Fatal(err)
	}
	check("after a delete", ss, loaded-1)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, _, err := shard.Open(dir, ds.Catalog, ds.Access, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	check("reopened", reopened, loaded-1)
}
