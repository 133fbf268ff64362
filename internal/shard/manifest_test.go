package shard_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// v1StoreDDL is the schema of testdata/v1-store: a durable three-shard
// store written by the build that still had a round-robin rule, with a
// partitioned relation (r), one pinned for want of an anchor (wide) and
// one pinned by a domain constraint (codes). Its shards hold checkpoint
// segments and a write-ahead log tail.
const v1StoreDDL = `
relation r(a, b, c)
relation wide(a, b, c)
relation codes(d, e)

constraint r: (a) -> (b, 100)
constraint wide: (a) -> (c, 10)
constraint wide: (b) -> (c, 10)
constraint codes: () -> (e, 4)
`

// v1StorePlacements are the PlacementOf strings that build reported.
var v1StorePlacements = map[string]string{
	"r":     "partitioned by (a)",
	"wide":  "pinned to shard 2",
	"codes": "pinned to shard 1",
}

// copyStore copies a durable store directory into a fresh temporary one,
// so that opening it leaves the original untouched.
func copyStore(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(src)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// shardContents renders every shard's tuples per relation, sorted.
func shardContents(t *testing.T, ss *shard.Store) []map[string]string {
	t.Helper()
	out := make([]map[string]string, ss.NumShards())
	for s := range out {
		out[s] = make(map[string]string)
		for _, rs := range ss.Catalog().Relations() {
			ts, err := ss.Shard(s).Snapshot().Tuples(rs.Name())
			if err != nil {
				t.Fatal(err)
			}
			out[s][rs.Name()] = sortedTuples(t, ts)
		}
	}
	return out
}

// checkRoutesInPlace asserts that the store routes every tuple it holds
// to the shard holding it: each probe of each constraint goes there, and
// deleting every tuple then inserting it back (in Strict mode, where a
// misrouted delete fails) leaves every shard as it was.
func checkRoutesInPlace(t *testing.T, ss *shard.Store) {
	t.Helper()
	before := shardContents(t, ss)
	v := ss.View()
	var dels, ins []live.Op
	for s := 0; s < ss.NumShards(); s++ {
		for _, rs := range ss.Catalog().Relations() {
			ts, err := ss.Shard(s).Snapshot().Tuples(rs.Name())
			if err != nil {
				t.Fatal(err)
			}
			for _, ac := range ss.Access().ForRelation(rs.Name()) {
				pos, err := rs.Positions(ac.X)
				if err != nil {
					t.Fatal(err)
				}
				xs := make([]value.Tuple, len(ts))
				for i, tu := range ts {
					xs[i] = tu.Project(pos)
				}
				owners, err := v.Partition(ac, xs)
				if err != nil {
					t.Fatal(err)
				}
				for i, o := range owners {
					if o != s {
						t.Fatalf("probe %s of %s routes to shard %d; its group is on shard %d", xs[i], ac, o, s)
					}
				}
			}
			for _, tu := range ts {
				dels = append(dels, live.Delete(rs.Name(), tu))
				ins = append(ins, live.Insert(rs.Name(), tu))
			}
		}
	}
	if err := ss.Apply(dels); err != nil {
		t.Fatalf("deleting every tuple: %v", err)
	}
	if n := ss.NumTuples(); n != 0 {
		t.Fatalf("%d tuples left after deleting every tuple", n)
	}
	if err := ss.Apply(ins); err != nil {
		t.Fatal(err)
	}
	if after := shardContents(t, ss); !reflect.DeepEqual(after, before) {
		t.Fatalf("re-inserted tuples moved\n before: %v\n after:  %v", before, after)
	}
}

// TestManifestFromOlderBuildOpens: a store an older build wrote —
// manifest version 1, partitioned and pinned entries, a write-ahead log
// per shard — is migrated at Open: the shard logs' tails replay, every
// shard checkpoints, the shard logs go and manifest version 2 is written.
// The migrated store has the placements and tuples it was written with,
// routes every tuple and probe to the shard that holds it, writes the
// manifest bytes a fresh store of the same schema writes, and a second
// Open reads version 2 and the same tuples.
func TestManifestFromOlderBuildOpens(t *testing.T) {
	cat, acc, err := schema.ParseDDL(v1StoreDDL)
	if err != nil {
		t.Fatal(err)
	}
	dir := copyStore(t, filepath.Join("testdata", "v1-store"))
	if m, err := shard.ReadManifest(dir); err != nil || m.Version != 1 {
		t.Fatalf("testdata manifest = %+v (%v), want version 1", m, err)
	}
	ss, rec, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Migrated {
		t.Error("a version-1 directory was not reported migrated")
	}
	if rec.ReplayedOps == 0 {
		t.Error("nothing replayed: the shards' write-ahead log tails were not read")
	}
	for rel, want := range v1StorePlacements {
		if got, _ := ss.PlacementOf(rel); got != want {
			t.Errorf("placement of %s = %q, want %q", rel, got, want)
		}
	}
	if got := ss.View().ShardSizes(); !reflect.DeepEqual(got, []int64{8, 24, 19}) {
		t.Errorf("shard sizes %v, want [8 24 19]", got)
	}
	checkNoShardLogs(t, dir, ss.NumShards())
	checkRoutesInPlace(t, ss)
	contents := shardContents(t, ss)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	re, rec, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec.Migrated {
		t.Error("a migrated directory was migrated again")
	}
	if got := shardContents(t, re); !reflect.DeepEqual(got, contents) {
		t.Errorf("reopened shards differ\n got:  %v\n want: %v", got, contents)
	}

	fresh := t.TempDir()
	ns, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: 3, Dir: fresh})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	checkNoShardLogs(t, fresh, ns.NumShards())
	want, err := os.ReadFile(filepath.Join(fresh, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("migrated manifest differs from a fresh store's\n got:  %s\n want: %s", got, want)
	}
	if m, err := shard.ReadManifest(dir); err != nil || m.Version != 2 {
		t.Errorf("migrated manifest = %+v (%v), want version 2", m, err)
	}
}

// checkNoShardLogs fails when a shard directory holds a write-ahead log:
// a sharded store keeps one, at its root.
func checkNoShardLogs(t *testing.T, dir string, shards int) {
	t.Helper()
	for s := 0; s < shards; s++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%03d", s), "wal.log")); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("shard %d directory holds a wal.log (%v)", s, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil {
		t.Errorf("no store log at the root: %v", err)
	}
}

// rewriteManifest copies testdata/v1-store and sets one relation's
// manifest entry.
func rewriteManifest(t *testing.T, rel string, mp shard.ManifestPlacement) string {
	t.Helper()
	dir := copyStore(t, filepath.Join("testdata", "v1-store"))
	m, err := shard.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	m.Placements[rel] = mp
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestManifestRefusesRoundRobinAndMovedHomes: a round-robin entry, which
// only older builds wrote, is refused with the relation named and a
// request to rebuild; so is a pinned entry whose home is not the shard
// the empty key hashes to.
func TestManifestRefusesRoundRobinAndMovedHomes(t *testing.T) {
	cat, acc, err := schema.ParseDDL(v1StoreDDL)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rel  string
		mp   shard.ManifestPlacement
		want []string
	}{
		{"wide", shard.ManifestPlacement{Kind: "round-robin"}, []string{"relation wide", "round-robin", "rebuild"}},
		{"codes", shard.ManifestPlacement{Kind: "pinned", Home: 0}, []string{"relation codes", "pinned to shard 0", "hashes to shard 1"}},
	}
	for _, c := range cases {
		_, _, err := shard.Open(rewriteManifest(t, c.rel, c.mp), cat, acc, shard.Options{})
		if err == nil {
			t.Fatalf("%s placed %+v: Open succeeded", c.rel, c.mp)
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s placed %+v: error %q does not mention %q", c.rel, c.mp, err, w)
			}
		}
	}
}

// TestDurableStoreRoundTripsEveryKey: a store with a partitioned, a
// pinned and a constraint-less relation reopens with the same
// placements, the same tuples on every shard, and routes them in place.
func TestDurableStoreRoundTripsEveryKey(t *testing.T) {
	const ddl = `
relation r(a, b)
relation dom(d, e)
relation events(who, what)

constraint r: (a) -> (b, 100)
constraint dom: () -> (e, 10)
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
	var ops []live.Op
	for i := 0; i < 9; i++ {
		n := string(rune('0' + i))
		ops = append(ops,
			live.Insert("r", tup("a"+n, "b")),
			live.Insert("dom", tup("d"+n, "e"+n)),
			live.Insert("events", tup("u"+n, "login")),
			live.Insert("events", tup("u"+n, "login")))
	}
	if err := ss.Apply(ops); err != nil {
		t.Fatal(err)
	}
	place := make(map[string]string)
	for _, rs := range cat.Relations() {
		place[rs.Name()], _ = ss.PlacementOf(rs.Name())
	}
	if place["events"] != "partitioned by (what, who)" || !strings.HasPrefix(place["dom"], "pinned to shard ") {
		t.Fatalf("placements %v", place)
	}
	contents := shardContents(t, ss)
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	re, _, err := shard.Open(dir, cat, acc, shard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for rel, want := range place {
		if got, _ := re.PlacementOf(rel); got != want {
			t.Errorf("reopened placement of %s = %q, want %q", rel, got, want)
		}
	}
	if got := shardContents(t, re); !reflect.DeepEqual(got, contents) {
		t.Fatalf("reopened shards differ\n got:  %v\n want: %v", got, contents)
	}
	checkRoutesInPlace(t, re)
}
