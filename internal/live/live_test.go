package live

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"bcq/internal/core"
	"bcq/internal/exec"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

func socialCatalog() *schema.Catalog {
	return schema.MustCatalog(
		schema.MustRelation("in_album", "photo_id", "album_id"),
		schema.MustRelation("friends", "user_id", "friend_id"),
		schema.MustRelation("tagging", "photo_id", "tagger_id", "taggee_id"),
	)
}

func accessA0() *schema.AccessSchema {
	return schema.MustAccessSchema(
		schema.MustAccessConstraint("in_album", []string{"album_id"}, []string{"photo_id"}, 3),
		schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000),
		schema.MustAccessConstraint("tagging", []string{"photo_id", "taggee_id"}, []string{"tagger_id"}, 1),
	)
}

func strs(vals ...string) value.Tuple {
	tu := make(value.Tuple, len(vals))
	for i, v := range vals {
		tu[i] = value.Str(v)
	}
	return tu
}

// liveCopies counts the live tuples of rel equal to tu in a snapshot.
func liveCopies(t *testing.T, sn *Snapshot, rel string, tu value.Tuple) int {
	t.Helper()
	ts, err := sn.Tuples(rel)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, x := range ts {
		if x.Equal(tu) {
			n++
		}
	}
	return n
}

// loadSocial is the hand-checkable Example 1 scenario of the exec tests,
// with the in_album bound tightened to 3 so bound rejections are easy to
// provoke (album a0 is full: p1, p2, p4).
func loadSocial(t testing.TB) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(socialCatalog())
	ins := func(rel string, vals ...string) {
		t.Helper()
		if err := db.Insert(rel, strs(vals...)); err != nil {
			t.Fatal(err)
		}
	}
	ins("in_album", "p1", "a0")
	ins("in_album", "p2", "a0")
	ins("in_album", "p4", "a0")
	ins("in_album", "p3", "a1")
	ins("friends", "u0", "f1")
	ins("friends", "u0", "f2")
	ins("friends", "u1", "f9")
	ins("tagging", "p1", "f1", "u0")
	ins("tagging", "p2", "s9", "u0")
	ins("tagging", "p4", "f2", "u0")
	ins("tagging", "p3", "f1", "u0")
	return db
}

func liveSocial(t testing.TB, opts Options) *Store {
	t.Helper()
	st, err := New(loadSocial(t), accessA0(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func inAlbumAC() schema.AccessConstraint {
	return schema.MustAccessConstraint("in_album", []string{"album_id"}, []string{"photo_id"}, 3)
}

// ys renders the Y-values of a group: each witness's columns at the
// constraint's Y positions.
func ys(ac schema.AccessConstraint, entries []storage.IndexEntry) []string {
	rs, _ := socialCatalog().Relation(ac.Rel)
	yPos, err := rs.Positions(ac.Y)
	if err != nil {
		panic(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Witness.Project(yPos).String())
	}
	return out
}

func TestSnapshotIsolation(t *testing.T) {
	st := liveSocial(t, Options{})
	s0 := st.Snapshot()
	if s0.Epoch() != 0 {
		t.Fatalf("fresh store at epoch %d, want 0", s0.Epoch())
	}

	if err := st.Insert("in_album", strs("p9", "a1")); err != nil {
		t.Fatal(err)
	}
	s1 := st.Snapshot()
	if s1.Epoch() != 1 {
		t.Fatalf("after one insert at epoch %d, want 1", s1.Epoch())
	}

	e0, err := s0.Fetch(inAlbumAC(), strs("a1"))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s1.Fetch(inAlbumAC(), strs("a1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(e0) != 1 || len(e1) != 2 {
		t.Fatalf("a1 group sizes: pinned %d (want 1), current %d (want 2)", len(e0), len(e1))
	}
	if s0.NumTuples() != 11 || s1.NumTuples() != 12 {
		t.Errorf("|D|: pinned %d (want 11), current %d (want 12)", s0.NumTuples(), s1.NumTuples())
	}
}

func TestStrictBoundRejectionIsAtomic(t *testing.T) {
	st := liveSocial(t, Options{})
	before := st.Snapshot()
	// Second op would give album a0 a 4th distinct photo (bound 3).
	_, err := st.Apply([]Op{
		Insert("friends", strs("u0", "f3")),
		Insert("in_album", strs("p9", "a0")),
	})
	if err == nil {
		t.Fatal("over-bound batch accepted")
	}
	if !errors.Is(err, ErrBound) {
		t.Fatalf("error %v does not match ErrBound", err)
	}
	var be *BoundError
	if !errors.As(err, &be) || be.AC.Rel != "in_album" {
		t.Fatalf("error %v does not carry the violated constraint", err)
	}
	after := st.Snapshot()
	if after != before {
		t.Error("rejected batch published a new snapshot")
	}
	if n, _ := after.Size("friends"); n != 3 {
		t.Errorf("rejected batch leaked a friends insert (size %d)", n)
	}
	// The pair bookkeeping must be untouched too: a later delete of the
	// never-committed tuple must report it missing.
	if err := st.Delete("friends", strs("u0", "f3")); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("rejected batch leaked pair state: delete of uncommitted tuple gave %v", err)
	}
}

// TestChurnDoesNotGrowBookkeeping cycles insert/delete of the same tuple
// — alone, and doubled so the pair enters and leaves the ledger — and
// checks after every commit that the writer-side bookkeeping holds
// nothing for dead occurrences (which would degrade deletes and leak).
func TestChurnDoesNotGrowBookkeeping(t *testing.T) {
	st := liveSocial(t, Options{})
	u7 := strs("u7", "f7")
	for i := 0; i < 200; i++ {
		n := 1 + i%2 // odd rounds insert the tuple twice
		for k := 0; k < n; k++ {
			if err := st.Insert("friends", u7); err != nil {
				t.Fatal(err)
			}
			checkLedger(t, st, "churn insert")
		}
		for k := 0; k < n; k++ {
			if err := st.Delete("friends", u7); err != nil {
				t.Fatal(err)
			}
			checkLedger(t, st, "churn delete")
		}
	}
	for key, led := range st.ledger {
		if len(led) != 0 {
			t.Errorf("ledger of %s holds %d entries after balanced churn, want 0", key, len(led))
		}
	}
	if n := liveCopies(t, st.Snapshot(), "friends", u7); n != 0 {
		t.Errorf("%d live copies after balanced churn, want 0", n)
	}
	if n, _ := st.Snapshot().Size("friends"); n != 3 {
		t.Errorf("friends size %d after balanced churn, want 3", n)
	}
	// The group must be clean too: u7 has no live friends.
	fr := schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000)
	entries, err := st.Snapshot().Fetch(fr, strs("u7"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("u7 group has %d entries after balanced churn, want 0", len(entries))
	}
}

// TestStructuralErrorsAbortInBothModes sends an unknown relation and an
// arity mismatch through both op kinds, insert and delete, each after a
// valid op of its batch: the batch aborts whole, and no op counts as
// rejected, since a structural error is a caller bug and not a bound.
func TestStructuralErrorsAbortInBothModes(t *testing.T) {
	st := liveSocial(t, Options{})
	before := st.Snapshot()
	valid := Insert("friends", strs("u0", "f3"))
	for _, bad := range []Op{
		Insert("nope", strs("x")), Delete("nope", strs("x")),
		Insert("friends", strs("onlyone")), Delete("friends", strs("onlyone")),
	} {
		if _, err := st.Apply([]Op{valid, bad}); err == nil {
			t.Errorf("%v %s%v accepted", bad.Kind, bad.Rel, bad.Tuple)
		}
	}
	if st.Snapshot() != before {
		t.Error("a batch with a structural error published")
	}
	if ig := st.IngestStats(); ig.OpsRejected != 0 || ig.OpsApplied != 0 {
		t.Errorf("ingest stats %+v, want nothing applied or rejected", ig)
	}
}

func TestDeleteSemantics(t *testing.T) {
	st := liveSocial(t, Options{})
	if err := st.Delete("in_album", strs("p2", "a0")); err != nil {
		t.Fatal(err)
	}
	s := st.Snapshot()
	entries, err := s.Fetch(inAlbumAC(), strs("a0"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ys(inAlbumAC(), entries)); got != "[('p1') ('p4')]" {
		t.Errorf("a0 group after delete = %v", got)
	}
	// Deleting again must fail: only one occurrence existed.
	if err := st.Delete("in_album", strs("p2", "a0")); !errors.Is(err, ErrNoSuchTuple) {
		t.Errorf("double delete error = %v, want ErrNoSuchTuple", err)
	}
	// Re-inserting is fine and restores the group (at the end).
	if err := st.Insert("in_album", strs("p2", "a0")); err != nil {
		t.Fatal(err)
	}
	entries, err = st.Snapshot().Fetch(inAlbumAC(), strs("a0"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(ys(inAlbumAC(), entries)); got != "[('p1') ('p4') ('p2')]" {
		t.Errorf("a0 group after re-insert = %v", got)
	}
}

func TestDuplicateInsertNeverViolates(t *testing.T) {
	st := liveSocial(t, Options{})
	// Album a0 is at its bound (3 distinct photos), but duplicates of a
	// live pair add no distinct Y-value.
	for i := 0; i < 10; i++ {
		if err := st.Insert("in_album", strs("p1", "a0")); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Snapshot()
	entries, err := s.Fetch(inAlbumAC(), strs("a0"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Errorf("a0 group size %d after duplicate inserts, want 3", len(entries))
	}
	if n, _ := s.Size("in_album"); n != 14 {
		t.Errorf("in_album size %d, want 14", n)
	}
}

func TestWitnessDeleteRewitnesses(t *testing.T) {
	st := liveSocial(t, Options{})
	// Two occurrences of the (a1, p3) pair with different... in_album has
	// only two attributes, so occurrences are exact duplicates; the
	// re-witness must move Pos to the surviving occurrence.
	if err := st.Insert("in_album", strs("p3", "a1")); err != nil {
		t.Fatal(err)
	}
	s1 := st.Snapshot()
	e1, _ := s1.Fetch(inAlbumAC(), strs("a1"))
	if len(e1) != 1 {
		t.Fatalf("a1 group size %d, want 1", len(e1))
	}
	origPos := e1[0].Pos

	if err := st.Delete("in_album", strs("p3", "a1")); err != nil {
		t.Fatal(err)
	}
	e2, _ := st.Snapshot().Fetch(inAlbumAC(), strs("a1"))
	if len(e2) != 1 {
		t.Fatalf("a1 group size after witness delete %d, want 1", len(e2))
	}
	if e2[0].Pos == origPos {
		t.Errorf("witness position %d not re-pointed after its tuple was deleted", e2[0].Pos)
	}
	if !e2[0].Witness.Equal(strs("p3", "a1")) {
		t.Errorf("re-witnessed tuple %v", e2[0].Witness)
	}
	// The pinned earlier snapshot still sees the original witness.
	e1again, _ := s1.Fetch(inAlbumAC(), strs("a1"))
	if e1again[0].Pos != origPos {
		t.Error("pinned snapshot's witness changed under a later delete")
	}
}

// trieLeaves lists a constraint's trie at a snapshot: X-key → group.
func trieLeaves(s *Snapshot, acKey string) map[string][]storage.IndexEntry {
	out := make(map[string][]storage.IndexEntry)
	s.roots[s.binds[acKey].ord].all(func(xk string, g []storage.IndexEntry) bool {
		out[xk] = g
		return true
	})
	return out
}

// TestTrieDropsGoneGroups: churn that creates groups the base never had
// and later empties them leaves nothing of them in the trie, at every
// commit, so what the trie holds follows the live groups and not the
// commits since the last Compact. An emptied group the base has stays as
// an empty leaf, which is what hides the base's; every lookup answers as
// before, at the last epoch and at a snapshot pinned before it.
func TestTrieDropsGoneGroups(t *testing.T) {
	st := liveSocial(t, Options{})
	fr := schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000)
	user := func(i int) value.Tuple { return strs(fmt.Sprintf("n%03d", i), "f") }
	const commits, lag = 100, 4
	var pinned *Snapshot
	for i := 0; i < commits; i++ {
		ops := []Op{Insert("friends", user(i))}
		if i >= lag {
			ops = append(ops, Delete("friends", user(i-lag)))
		}
		if i == 10 {
			ops = append(ops, Delete("friends", strs("u1", "f9"))) // the base's u1 group
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
		if i == commits-2 {
			pinned = st.Snapshot()
		}
		leaves := trieLeaves(st.Snapshot(), fr.Key())
		want := min(i+1, lag)
		if i >= 10 {
			want++
		}
		if len(leaves) != want {
			t.Fatalf("after %d commits the friends trie holds %d groups, want %d: the live new users and the emptied base group", i+1, len(leaves), want)
		}
		for xk, g := range leaves {
			if g == nil || len(g) == 0 && xk != value.KeyOf(strs("u1"), []int{0}) {
				t.Fatalf("after %d commits the trie keeps group %q at %v, which hides nothing", i+1, xk, g)
			}
		}
	}
	for _, snap := range []*Snapshot{st.Snapshot(), pinned} {
		last := int(snap.Epoch()) - 1 // the user the snapshot's last commit inserted
		for i := 0; i < commits; i++ {
			want := 0
			if last-lag < i && i <= last {
				want = 1
			}
			if g := mustFetch(t, snap, fr, user(i)[0].AsString()); len(g) != want {
				t.Fatalf("epoch %d: group of %s has %d entries, want %d", snap.Epoch(), user(i)[0], len(g), want)
			}
		}
		if g := mustFetch(t, snap, fr, "u1"); len(g) != 0 {
			t.Fatalf("epoch %d: the emptied base group serves %d entries", snap.Epoch(), len(g))
		}
		if g := mustFetch(t, snap, fr, "u0"); len(g) != 2 {
			t.Fatalf("epoch %d: the untouched base group serves %d entries, want 2", snap.Epoch(), len(g))
		}
	}
	checkCards(t, st, "after the churn")
	checkLedger(t, st, "after the churn")
}

func TestNonEmptyTransitions(t *testing.T) {
	cat := schema.MustCatalog(schema.MustRelation("r", "a", "b"))
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 10))
	st, err := New(storage.NewDatabase(cat), acc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := st.Snapshot().NonEmpty("r"); ok {
		t.Error("empty relation reported non-empty")
	}
	if err := st.Insert("r", strs("x", "y")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := st.Snapshot().NonEmpty("r"); !ok {
		t.Error("relation with one live tuple reported empty")
	}
	if err := st.Delete("r", strs("x", "y")); err != nil {
		t.Fatal(err)
	}
	if ok, _ := st.Snapshot().NonEmpty("r"); ok {
		t.Error("fully-deleted relation reported non-empty")
	}
	if _, err := st.Snapshot().NonEmpty("nope"); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestCompactCollapsesHistory churns the store, compacts, and checks:
// the published epoch continues, the new snapshot has no overlay state,
// pinned pre-compaction snapshots stay valid, reads are unchanged, and
// writes keep working on the compacted base.
func TestCompactCollapsesHistory(t *testing.T) {
	st := liveSocial(t, Options{})
	for i := 0; i < 50; i++ {
		if err := st.Insert("friends", strs("u5", fmt.Sprintf("f%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		if err := st.Delete("friends", strs("u5", fmt.Sprintf("f%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fr := schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000)
	pinned := st.Snapshot()
	pinnedEntries, err := pinned.Fetch(fr, strs("u5"))
	if err != nil {
		t.Fatal(err)
	}

	epoch, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != pinned.epoch+1 {
		t.Errorf("compact published epoch %d, want %d", epoch, pinned.epoch+1)
	}
	cur := st.Snapshot()
	history := slices.ContainsFunc(cur.rels, func(r relState) bool { return len(r.added) > 0 || len(r.dead) > 0 })
	if history || slices.ContainsFunc(cur.roots, func(r *trieNode) bool { return r != nil }) {
		t.Errorf("compacted snapshot retains history: relations %+v, tries %v", cur.rels, cur.roots)
	}
	if cur.base == pinned.base {
		t.Error("compacted snapshot still overlays the old base")
	}
	if cur.NumTuples() != pinned.NumTuples() {
		t.Errorf("|D| changed across compact: %d → %d", pinned.NumTuples(), cur.NumTuples())
	}
	curEntries, err := cur.Fetch(fr, strs("u5"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ys(fr, curEntries)) != fmt.Sprint(ys(fr, pinnedEntries)) {
		t.Errorf("u5 group changed across compact: %v → %v", ys(fr, pinnedEntries), ys(fr, curEntries))
	}
	// The pinned snapshot still reads through its own (old) base.
	again, err := pinned.Fetch(fr, strs("u5"))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ys(fr, again)) != fmt.Sprint(ys(fr, pinnedEntries)) {
		t.Error("pinned pre-compaction snapshot changed")
	}

	// Writes continue on the compacted base, and stay Freeze-equivalent.
	if err := st.Delete("friends", strs("u5", "f49")); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("friends", strs("u5", "f99")); err != nil {
		t.Fatal(err)
	}
	after, err := st.Snapshot().Fetch(fr, strs("u5"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"('f40')", "('f41')", "('f42')", "('f43')", "('f44')", "('f45')", "('f46')", "('f47')", "('f48')", "('f99')"}
	if fmt.Sprint(ys(fr, after)) != fmt.Sprint(want) {
		t.Errorf("u5 group after post-compact writes = %v, want %v", ys(fr, after), want)
	}
	if st.IngestStats().Compactions != 1 {
		t.Errorf("compactions counter = %d, want 1", st.IngestStats().Compactions)
	}
}

const q0src = `
	query Q0:
	select t1.photo_id
	from in_album as t1, friends as t2, tagging as t3
	where t1.album_id = 'a0' and t2.user_id = 'u0'
	  and t1.photo_id = t3.photo_id
	  and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id
`

func q0Plan(t testing.TB) *plan.Plan {
	t.Helper()
	cat, acc := socialCatalog(), accessA0()
	q, err := spc.Parse(q0src, cat)
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

func renderResult(r *exec.Result) string {
	return fmt.Sprintf("cols=%v tuples=%v stats=%+v dq=%d", r.Cols, r.Tuples, r.Stats, r.DQSize)
}

// TestSnapshotMatchesFreeze drives a mixed op history and checks, at
// every epoch, that bounded evaluation against the live snapshot is
// byte-identical — answers, access stats, |D_Q| — to evaluation against
// a sealed database rebuilt from scratch over the snapshot's contents.
// This is the incremental-maintenance correctness contract.
func TestSnapshotMatchesFreeze(t *testing.T) {
	st := liveSocial(t, Options{})
	pl := q0Plan(t)

	histories := [][]Op{
		{Insert("in_album", strs("p9", "a1"))}, // unrelated insert
		{Insert("friends", strs("u0", "f7")), Delete("tagging", strs("p2", "s9", "u0")), Insert("tagging", strs("p2", "f7", "u0"))}, // retag p2 by a friend → new answer
		{Delete("tagging", strs("p1", "f1", "u0"))},                                  // answer p1 disappears
		{Delete("in_album", strs("p2", "a0")), Insert("in_album", strs("p2", "a0"))}, // churn an answer
		{Insert("friends", strs("u0", "f1")), Delete("friends", strs("u0", "f1"))},   // dup then delete (re-witness)
		{Delete("friends", strs("u0", "f2"))},                                        // answer p4 disappears
	}
	check := func(tag string) {
		t.Helper()
		snap := st.Snapshot()
		live, err := exec.Run(pl, snap)
		if err != nil {
			t.Fatalf("%s: live run: %v", tag, err)
		}
		frozen, err := snap.Freeze()
		if err != nil {
			t.Fatalf("%s: freeze: %v", tag, err)
		}
		ref, err := exec.Run(pl, frozen)
		if err != nil {
			t.Fatalf("%s: frozen run: %v", tag, err)
		}
		if got, want := renderResult(live), renderResult(ref); got != want {
			t.Errorf("%s: live result diverges from freshly built database\n live:   %s\n frozen: %s", tag, got, want)
		}
	}
	check("epoch 0")
	for i, ops := range histories {
		if _, err := st.Apply(ops); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		check(fmt.Sprintf("epoch %d", i+1))
		if i == 2 {
			// Compacting mid-history must not change anything observable.
			if _, err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			check("post-compact")
		}
	}
}

// TestProbesFormatNoKeys: a probe encodes its X-key into a buffer on the
// stack, and only when the constraint has a trie; the base is probed with
// the X-value itself. So a 64-probe FetchBatch allocates its result slice
// and nothing per probe, and a single Fetch nothing at all — whether the
// group is served by the base, by the trie, or by nobody, with a trie or
// none.
func TestProbesFormatNoKeys(t *testing.T) {
	st := liveSocial(t, Options{})
	pristine := st.Snapshot()
	if _, err := st.Apply([]Op{Insert("in_album", strs("p9", "a2")), Delete("in_album", strs("p4", "a0"))}); err != nil {
		t.Fatal(err)
	}
	for _, snap := range []*Snapshot{pristine, st.Snapshot()} {
		probesFormatNoKeys(t, snap)
	}
	if got := ys(inAlbumAC(), mustFetch(t, st.Snapshot(), inAlbumAC(), "a0")); fmt.Sprint(got) != "[('p1') ('p2')]" {
		t.Errorf("album a0 after the delete = %v", got)
	}
}

func probesFormatNoKeys(t *testing.T, snap *Snapshot) {
	t.Helper()
	albums := make([]value.Tuple, 64)
	for i := range albums {
		albums[i] = strs(fmt.Sprintf("a%d", i%4)) // a0 overlaid, a1 base, a2 new, a3 absent
	}
	taggings := make([]value.Tuple, 64)
	for i := range taggings {
		taggings[i] = strs(fmt.Sprintf("p%d", i%6), "u0")
	}
	tagAC := schema.MustAccessConstraint("tagging", []string{"photo_id", "taggee_id"}, []string{"tagger_id"}, 1)
	for _, c := range []struct {
		ac schema.AccessConstraint
		xs []value.Tuple
	}{{inAlbumAC(), albums}, {tagAC, taggings}} {
		var groups [][]storage.IndexEntry
		var err error
		if n := testing.AllocsPerRun(50, func() { groups, err = snap.FetchBatch(c.ac, c.xs) }); n != 1 || err != nil {
			t.Errorf("epoch %d: %s: a 64-probe FetchBatch allocates %.0f times (err %v), want 1: the result slice", snap.Epoch(), c.ac, n, err)
		}
		for i, x := range c.xs {
			var one []storage.IndexEntry
			if n := testing.AllocsPerRun(10, func() { one, err = snap.Fetch(c.ac, x) }); n != 0 || err != nil {
				t.Errorf("%s: Fetch(%s) allocates %.0f times (err %v), want 0", c.ac, x, n, err)
			}
			if fmt.Sprint(ys(c.ac, one)) != fmt.Sprint(ys(c.ac, groups[i])) {
				t.Errorf("%s: Fetch(%s) = %v, FetchBatch's group %v", c.ac, x, ys(c.ac, one), ys(c.ac, groups[i]))
			}
		}
	}
}

func mustFetch(t *testing.T, snap *Snapshot, ac schema.AccessConstraint, x ...string) []storage.IndexEntry {
	t.Helper()
	g, err := snap.Fetch(ac, strs(x...))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// collectedHeap is the live heap after two collections.
func collectedHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCompactReleasesTheOldBase: once a Compact has published a fresh base
// and no snapshot pins the old one, nothing does — the heap is back to
// what the store held when it was built over the same data, not that plus
// a stale copy of every index. And Base() is the base the current
// snapshot reads.
func TestCompactReleasesTheOldBase(t *testing.T) {
	const users, friendsEach = 20_000, 5
	// Built in a function of its own so that the store is the only thing
	// left holding the database.
	build := func() *Store {
		db := storage.NewDatabase(socialCatalog())
		for u := 0; u < users; u++ {
			for f := 0; f < friendsEach; f++ {
				if err := db.Insert("friends", strs(fmt.Sprintf("u%d", u), fmt.Sprintf("u%d", (u+f+1)%users))); err != nil {
					t.Fatal(err)
				}
			}
		}
		st, err := New(db, accessA0(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := build()
	built := collectedHeap()
	if st.Base() != st.Snapshot().base {
		t.Fatal("Base() is not the base the root snapshot reads")
	}

	for b := 0; b < 4; b++ {
		ops := make([]Op, 0, 20)
		for i := 0; i < 10; i++ {
			u := fmt.Sprintf("u%d", b*10+i)
			ops = append(ops, Insert("friends", strs(u, "newcomer")), Delete("friends", strs(u, fmt.Sprintf("u%d", b*10+i+1))))
		}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	old := st.Base()
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if st.Base() != st.Snapshot().base || st.Base() == old {
		t.Error("Base() after Compact is not the compacted base the current snapshot reads")
	}

	compacted := collectedHeap()
	t.Logf("heap: %d B built, %d B after Compact", built, compacted)
	if limit := built + built/10; compacted > limit {
		t.Errorf("heap after Compact with every old snapshot dropped: %d B, more than 10%% over the %d B the store held when built — a replaced base is still reachable",
			compacted, built)
	}
	runtime.KeepAlive(st)
}
