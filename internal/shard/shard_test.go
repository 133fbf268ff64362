package shard_test

import (
	"fmt"
	"runtime"
	"testing"

	"bcq/internal/baseline"
	"bcq/internal/core"
	"bcq/internal/exec"
	"bcq/internal/live"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

const testDDL = `
relation in_album(photo_id, album_id)
relation friends(user_id, friend_id)
relation tagging(photo_id, tagger_id, taggee_id)

constraint in_album: (album_id) -> (photo_id, 1000)
constraint friends: (user_id) -> (friend_id, 5000)
constraint tagging: (photo_id, taggee_id) -> (tagger_id, 1)
`

const testQuery = `
query Q0:
select t1.photo_id
from in_album as t1, friends as t2, tagging as t3
where t1.album_id = 'a0'
  and t2.user_id = 'u0'
  and t1.photo_id = t3.photo_id
  and t3.tagger_id = t2.friend_id
  and t3.taggee_id = t2.user_id
`

func str(s string) value.Value { return value.Str(s) }

// scene loads a deterministic social scene into a fresh database.
func scene(t testing.TB, nAlbums, nUsers int) (*schema.Catalog, *schema.AccessSchema, *storage.Database) {
	t.Helper()
	cat, acc, err := schema.ParseDDL(testDDL)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	ins := func(rel string, vals ...string) {
		t.Helper()
		tu := make(value.Tuple, len(vals))
		for i, v := range vals {
			tu[i] = str(v)
		}
		if err := db.Insert(rel, tu); err != nil {
			t.Fatal(err)
		}
	}
	for a := 0; a < nAlbums; a++ {
		for p := 0; p < 5; p++ {
			photo := fmt.Sprintf("a%dp%d", a, p)
			ins("in_album", photo, fmt.Sprintf("a%d", a))
			ins("tagging", photo, fmt.Sprintf("u%d", (a+p)%nUsers), fmt.Sprintf("u%d", p%nUsers))
		}
	}
	for u := 0; u < nUsers; u++ {
		for f := 1; f <= 3; f++ {
			ins("friends", fmt.Sprintf("u%d", u), fmt.Sprintf("u%d", (u+f)%nUsers))
		}
	}
	return cat, acc, db
}

// planFor analyzes and plans the test query.
func planFor(t testing.TB, cat *schema.Catalog, acc *schema.AccessSchema) *plan.Plan {
	t.Helper()
	q, err := spc.Parse(testQuery, cat)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalysis(cat, q, acc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func render(r *exec.Result) string {
	return fmt.Sprintf("cols=%v tuples=%v stats=%+v dq=%d", r.Cols, r.Tuples, r.Stats, r.DQSize)
}

func TestShardedExecutionMatchesSealedDatabase(t *testing.T) {
	cat, acc, db := scene(t, 6, 5)
	pl := planFor(t, cat, acc)

	for _, p := range []int{1, 2, 3, 4, 7} {
		ss, err := shard.New(db, acc, shard.Options{Shards: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		// Seal the reference copy after the shard store has read it.
		if p == 1 {
			if err := db.EnsureIndexes(acc); err != nil {
				t.Fatal(err)
			}
		}
		want, err := exec.Run(pl, db)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Run(pl, ss.View())
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if render(got) != render(want) {
			t.Errorf("P=%d diverged\n got:  %s\n want: %s", p, render(got), render(want))
		}
	}
}

func TestShardedIngestMatchesSingleLiveStore(t *testing.T) {
	_, acc, db := scene(t, 4, 4)
	cat2, acc2, db2 := scene(t, 4, 4)
	pl := planFor(t, cat2, acc2)

	ss, err := shard.New(db, acc, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := live.New(db2, acc2, live.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The same op sequence against both stores: fresh inserts, a
	// duplicate, then deletes that force re-witnessing.
	ops := []live.Op{
		live.Insert("in_album", value.Tuple{str("a0p9"), str("a0")}),
		live.Insert("tagging", value.Tuple{str("a0p9"), str("u1"), str("u0")}),
		live.Insert("friends", value.Tuple{str("u0"), str("u1")}), // duplicate pair
		live.Insert("in_album", value.Tuple{str("a0p9"), str("a0")}),
	}
	if err := ss.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Apply(ops); err != nil {
		t.Fatal(err)
	}
	// Delete the first occurrence: the pair survives via the duplicate
	// and must be re-witnessed identically on both sides.
	del := []live.Op{live.Delete("in_album", value.Tuple{str("a0p9"), str("a0")})}
	if err := ss.Apply(del); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Apply(del); err != nil {
		t.Fatal(err)
	}

	got, err := exec.Run(pl, ss.View())
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(pl, ls.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Errorf("sharded vs live diverged\n got:  %s\n want: %s", render(got), render(want))
	}

	// And against a database rebuilt from the sharded view.
	frozen, err := ss.View().Freeze()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := exec.Run(pl, frozen)
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(ref) {
		t.Errorf("sharded vs frozen diverged\n got:  %s\n want: %s", render(got), render(ref))
	}
}

func TestViewIsConsistentCut(t *testing.T) {
	_, acc, db := scene(t, 3, 3)
	ss, err := shard.New(db, acc, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	v := ss.View()
	before := v.NumTuples()
	beforeEpochs := v.Epochs()

	if err := ss.Insert("in_album", value.Tuple{str("zz"), str("a0")}); err != nil {
		t.Fatal(err)
	}
	if got := v.NumTuples(); got != before {
		t.Errorf("pinned view grew: %d -> %d", before, got)
	}
	for s, e := range v.Epochs() {
		if e != beforeEpochs[s] {
			t.Errorf("pinned view epoch moved on shard %d: %d -> %d", s, beforeEpochs[s], e)
		}
	}
	if got := ss.View().NumTuples(); got != before+1 {
		t.Errorf("fresh view: got %d tuples, want %d", got, before+1)
	}
}

func TestAdmissionBoundEnforcedPerShard(t *testing.T) {
	cat, err := schema.NewCatalog(mustRel(t, "r", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	acc := schema.MustAccessSchema(schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 2))
	db := storage.NewDatabase(cat)
	for _, y := range []string{"y1", "y2"} {
		if err := db.Insert("r", value.Tuple{str("x0"), str(y)}); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := shard.New(db, acc, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The x0 group is full: a third distinct y must be rejected, on
	// whichever shard owns the group.
	err = ss.Insert("r", value.Tuple{str("x0"), str("y3")})
	if err == nil {
		t.Fatal("over-bound insert accepted")
	}
	// A duplicate of a live pair is always fine.
	if err := ss.Insert("r", value.Tuple{str("x0"), str("y1")}); err != nil {
		t.Fatalf("duplicate insert rejected: %v", err)
	}
}

func TestPlacementDerivation(t *testing.T) {
	cat, err := schema.NewCatalog(
		mustRel(t, "part", "k", "v"),
		mustRel(t, "wide", "a", "b", "c"),
		mustRel(t, "dom", "d", "e"),
		mustRel(t, "free", "f", "g"),
		mustRel(t, "nested", "x", "y", "z"),
	)
	if err != nil {
		t.Fatal(err)
	}
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("part", []string{"k"}, []string{"v"}, 10),
		// Incomparable X-sets: no anchor.
		schema.MustAccessConstraint("wide", []string{"a"}, []string{"c"}, 10),
		schema.MustAccessConstraint("wide", []string{"b"}, []string{"c"}, 10),
		// Bounded domain: empty-X anchor degenerates to pinning.
		schema.MustAccessConstraint("dom", nil, []string{"e"}, 10),
		// (x) anchors both (x) -> ... and (x, y) -> ...
		schema.MustAccessConstraint("nested", []string{"x"}, []string{"y"}, 10),
		schema.MustAccessConstraint("nested", []string{"x", "y"}, []string{"z"}, 5),
	)
	db := storage.NewDatabase(cat)
	ss, err := shard.New(db, acc, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"part":   "partitioned by (k)",
		"wide":   "pinned",
		"dom":    "pinned",
		"free":   "partitioned by (f, g)", // no constraints: every attribute
		"nested": "partitioned by (x)",
	}
	for rel, prefix := range want {
		got, err := ss.PlacementOf(rel)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < len(prefix) || got[:len(prefix)] != prefix {
			t.Errorf("placement of %s: got %q, want prefix %q", rel, got, prefix)
		}
	}
}

func TestCompactPreservesResults(t *testing.T) {
	cat, acc, db := scene(t, 4, 4)
	pl := planFor(t, cat, acc)
	ss, err := shard.New(db, acc, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := ss.Insert("friends", value.Tuple{str("u0"), str("u1")}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := exec.Run(pl, ss.View())
	if err != nil {
		t.Fatal(err)
	}
	pinned := ss.View()
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := exec.Run(pl, ss.View())
	if err != nil {
		t.Fatal(err)
	}
	if render(before) != render(after) {
		t.Errorf("compact changed results\n before: %s\n after:  %s", render(before), render(after))
	}
	// The pre-compaction pin stays valid.
	old, err := exec.Run(pl, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if render(old) != render(before) {
		t.Errorf("pre-compaction pin diverged\n pin:    %s\n before: %s", render(old), render(before))
	}
}

func mustRel(t *testing.T, name string, attrs ...string) *schema.Relation {
	t.Helper()
	r, err := schema.NewRelation(name, attrs...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPartitionAllocatesOnlyItsResult: routing a probe batch hashes each
// shard key from a buffer on the stack — the owners slice is the only
// allocation, whatever the number of probes.
func TestPartitionAllocatesOnlyItsResult(t *testing.T) {
	_, acc, db := scene(t, 8, 6)
	ss, err := shard.New(db, acc, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	view := ss.View()
	for _, ac := range acc.Constraints() {
		xs := make([]value.Tuple, 64)
		for i := range xs {
			xs[i] = make(value.Tuple, len(ac.X))
			for k := range xs[i] {
				xs[i][k] = str(fmt.Sprintf("a%dp%d", i%8, k))
			}
		}
		var owners []int
		if n := testing.AllocsPerRun(50, func() { owners, err = view.Partition(ac, xs) }); n != 1 || err != nil {
			t.Errorf("%s: Partition of 64 probes allocates %.0f times (err %v), want 1", ac, n, err)
		}
		one, err := view.Partition(ac, xs[5:6])
		if err != nil || one[0] != owners[5] {
			t.Errorf("%s: probe 5 routes to shard %d in the batch, %v alone (err %v)", ac, owners[5], one, err)
		}
	}
}

// TestCompactReleasesTheOldBases is live's TestCompactReleasesTheOldBase
// through a two-shard store: after Compact neither shard keeps the base
// it was built over, so the heap is what it was when the store was built.
// (The unindexed database shard.New partitioned is still held by the
// store, before and after alike.)
func TestCompactReleasesTheOldBases(t *testing.T) {
	collectedHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	build := func() *shard.Store {
		_, acc, db := scene(t, 8_000, 8_000)
		ss, err := shard.New(db, acc, shard.Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	ss := build()
	built := collectedHeap()
	for b := 0; b < 4; b++ {
		ops := make([]live.Op, 0, 20)
		for i := 0; i < 10; i++ {
			u := fmt.Sprintf("u%d", b*10+i)
			ops = append(ops, live.Insert("friends", value.Tuple{str(u), str("newcomer")}),
				live.Delete("friends", value.Tuple{str(u), str(fmt.Sprintf("u%d", b*10+i+1))}))
		}
		if err := ss.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := collectedHeap()
	t.Logf("heap: %d B built, %d B after Compact", built, compacted)
	if limit := built + built/10; compacted > limit {
		t.Errorf("heap after Compact with every old view dropped: %d B, more than 10%% over the %d B the store held when built — a replaced base is still reachable",
			compacted, built)
	}
	runtime.KeepAlive(ss)
}

// TestYColumnsReadThroughWitnessPositions: an index entry carries no Y
// tuple, so the executor reads Y off the witness at the plan's YPos. Under
// r(c, a, b) with (a) → (b, c) the sorted Y is [b, c] and its positions
// are [2, 0] — neither contiguous nor in schema order — and the self-join
// below reads them both ways: r1 through a fetch step that binds b and c,
// r2 through a witness verification that takes c from the entry. Answers
// are held to baseline.IndexLoop and, with statistics and |D_Q|, to the
// sealed database at every shard count.
func TestYColumnsReadThroughWitnessPositions(t *testing.T) {
	cat := schema.MustCatalog(mustRel(t, "r", "c", "a", "b"))
	ac := schema.MustAccessConstraint("r", []string{"a"}, []string{"c", "b"}, 4)
	acc := schema.MustAccessSchema(ac)
	db := storage.NewDatabase(cat)
	const keys = 6
	for i := 0; i < keys; i++ {
		for j := 1; j <= 3; j++ {
			tu := value.Tuple{str(fmt.Sprintf("c%d", (i+2*j)%5)), str(fmt.Sprintf("k%d", i)), str(fmt.Sprintf("k%d", (i*j+1)%keys))}
			if err := db.Insert("r", tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	stores := map[int]*shard.Store{}
	for _, p := range []int{1, 2, 3} {
		ss, err := shard.New(db, acc, shard.Options{Shards: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		stores[p] = ss
	}
	if err := db.EnsureIndexes(acc); err != nil {
		t.Fatal(err)
	}

	answers := 0
	for i := 0; i < keys; i++ {
		q, err := spc.Parse(fmt.Sprintf(`
query Qy:
select r1.b, r1.c
from r as r1, r as r2
where r1.a = 'k%d' and r2.a = r1.b and r2.c = r1.c`, i), cat)
		if err != nil {
			t.Fatal(err)
		}
		an, err := core.NewAnalysis(cat, q, acc)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := plan.QPlan(an)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.Steps) != 1 || fmt.Sprint(ac.Y, pl.Steps[0].YPos) != "[b c] [2 0]" {
			t.Fatalf("plan fetches through %d steps, the first reading %v at %v; want one step reading [b c] at [2 0]\n%s",
				len(pl.Steps), ac.Y, pl.Steps[0].YPos, pl.Explain())
		}
		if vs := pl.Verifies[1]; vs.FromStep >= 0 || vs.Exists || fmt.Sprint(vs.YPos) != "[2 0]" {
			t.Fatalf("r2 is not verified through a witness probe reading Y at [2 0] (FromStep %d, YPos %v)\n%s", vs.FromStep, vs.YPos, pl.Explain())
		}
		want, err := exec.Run(pl, db)
		if err != nil {
			t.Fatal(err)
		}
		il, err := baseline.IndexLoop(an.Closure, db, baseline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want.Tuples) != fmt.Sprint(il.Tuples) {
			t.Errorf("k%d: executor %v, IndexLoop %v", i, want.Tuples, il.Tuples)
		}
		answers += len(want.Tuples)
		for p, ss := range stores {
			got, err := exec.Run(pl, ss.View())
			if err != nil {
				t.Fatalf("k%d P=%d: %v", i, p, err)
			}
			if render(got) != render(want) {
				t.Errorf("k%d P=%d diverged\n got:  %s\n want: %s", i, p, render(got), render(want))
			}
		}
	}
	// The scene must exercise both outcomes: r1 rows that r2 confirms and
	// r1 rows it rejects.
	if answers == 0 || answers >= 3*keys {
		t.Errorf("%d answers from %d r1 rows: the scene does not discriminate", answers, 3*keys)
	}
}
