package live

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"testing"

	"bcq/internal/datagen"
	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// sameLedger compares two position maps, treating nil and empty alike.
func sameLedger(a, b map[string][]int) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkLedger recounts the writer's bookkeeping from the current
// snapshot and requires it to be exactly what the design says it is:
//
//   - per constraint, a ledger record for every (X, Y) pair with two or
//     more live occurrences, holding their positions in live order, and
//     no record for any other pair;
//   - every pair's group entry witnessed by the pair's first live
//     occurrence — what a rebuild would pick;
//   - a tuple map for exactly the relations no constraint covers,
//     holding exactly the live positions;
//   - cardinality cards equal to a from-scratch recount (checkCards).
func checkLedger(t *testing.T, st *Store, stage string) {
	t.Helper()
	snap := st.Snapshot()
	for key, b := range st.byKey {
		r, _ := snap.resolve(key)
		seen := make(map[string]bool)
		for pos, tu := range snap.all(b.ac.Rel) {
			if pk := pairKey(value.KeyOf(tu, b.xPos), tu, b.yPos); !seen[pk] {
				seen[pk] = true
				g := r.at(tu, b.xPos)
				if i := entryOf(g, tu, b.yPos); i < 0 || g[i].Pos != pos {
					t.Fatalf("%s: %s: pair of %s first occurs at %d but its group entry says otherwise (entry %d of %v)",
						stage, key, tu, pos, i, g)
				}
			}
		}
		if got, want := st.ledger[key], recountLedger(snap, b); !sameLedger(got, want) {
			t.Fatalf("%s: ledger of %s diverged from recount\n got:  %v\n want: %v", stage, key, got, want)
		}
	}
	for ord, rs := range st.cat.Relations() {
		rel := rs.Name()
		got := st.tupPos[ord]
		has := got != nil
		if covered := len(st.byRel[rel]) > 0; covered == has {
			t.Fatalf("%s: relation %s: covered by a constraint = %v, has a tuple map = %v", stage, rel, covered, has)
		}
		if !has {
			continue
		}
		want := make(map[string][]int)
		for pos, tu := range snap.all(rel) {
			want[tu.Key()] = append(want[tu.Key()], pos)
		}
		if !sameLedger(got, want) {
			t.Fatalf("%s: tuple map of %s diverged from recount\n got:  %v\n want: %v", stage, rel, got, want)
		}
	}
	checkCards(t, st, stage)
}

// recountLedger is the per-tuple derivation live.New once ran, kept as
// the oracle of the ledger it now reads off the index: one pass over the
// relation's live tuples in live order, keying every tuple's pair, and a
// record for each pair met twice or more.
func recountLedger(snap *Snapshot, b acBinding) map[string][]int {
	led := make(map[string][]int)
	first := make(map[string]int)
	for pos, tu := range snap.all(b.ac.Rel) {
		pk := pairKey(value.KeyOf(tu, b.xPos), tu, b.yPos)
		if at, seen := first[pk]; !seen {
			first[pk] = pos
		} else if ps := led[pk]; ps != nil {
			led[pk] = append(ps, pos)
		} else {
			led[pk] = []int{at, pos}
		}
	}
	return led
}

// ledgerSize is the number of ledger records plus tuple-map keys the
// store retains.
func ledgerSize(st *Store) int {
	n := 0
	for _, led := range st.ledger {
		n += len(led)
	}
	for _, m := range st.tupPos {
		n += len(m)
	}
	return n
}

// pairScene is one relation where tuples can share an (X, Y) pair without
// being equal — r(a, b, c) under a → (b, 2) — plus a relation no
// constraint covers.
func pairScene(t *testing.T) *Store {
	t.Helper()
	cat := schema.MustCatalog(
		schema.MustRelation("r", "a", "b", "c"),
		schema.MustRelation("audit", "who", "what"),
	)
	acc := schema.MustAccessSchema(schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 2))
	st, err := New(storage.NewDatabase(cat), acc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestLedgerDuplicateSweep inserts k tuples of one pair — one of them
// twice, so exact duplicates and mere pair-mates mix — and deletes them
// in every order: the witness first, last and in between. The ledger,
// the witnesses and the cards are recounted after every commit.
func TestLedgerDuplicateSweep(t *testing.T) {
	tuples := []value.Tuple{strs("x", "y", "c0"), strs("x", "y", "c1"), strs("x", "y", "c0"), strs("x", "y", "c2")}
	for _, order := range permutations(len(tuples)) {
		st := pairScene(t)
		if err := st.Insert("r", strs("x", "other", "c9")); err != nil { // a singleton beside the pair
			t.Fatal(err)
		}
		for i, tu := range tuples {
			if err := st.Insert("r", tu); err != nil {
				t.Fatal(err)
			}
			checkLedger(t, st, fmt.Sprintf("order %v insert %d", order, i))
		}
		for _, i := range order {
			if err := st.Delete("r", tuples[i]); err != nil {
				t.Fatal(err)
			}
			checkLedger(t, st, fmt.Sprintf("order %v delete %d", order, i))
		}
		if n := ledgerSize(st); n != 0 {
			t.Fatalf("order %v: %d records left after every duplicate was deleted", order, n)
		}
		if n, _ := st.Snapshot().Size("r"); n != 1 {
			t.Fatalf("order %v: r holds %d tuples, want the singleton", order, n)
		}
	}
}

// TestLedgerAcrossWritePaths walks the ledger through the write paths
// that can leave a trace where none belongs: an aborted batch,
// insert-then-delete inside one batch, ExtendAccess over data that already holds duplicates (on a
// covered and on a so far constraint-less relation), and Compact.
func TestLedgerAcrossWritePaths(t *testing.T) {
	st := pairScene(t)
	x := func(b, c string) value.Tuple { return strs("x", b, c) }
	if _, err := st.Apply([]Op{Insert("r", x("y", "c0")), Insert("r", x("y", "c0")), Insert("r", x("z", "c0"))}); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, st, "seed")
	before := fmt.Sprint(st.ledger)

	// The third op breaks the bound (x already has y and z); the
	// duplicates before it must leave nothing behind.
	if _, err := st.Apply([]Op{Insert("r", x("y", "c1")), Delete("r", x("y", "c0")), Insert("r", x("w", "c0"))}); err == nil {
		t.Fatal("over-bound batch accepted")
	}
	if after := fmt.Sprint(st.ledger); after != before {
		t.Fatalf("aborted batch changed the ledger\n before: %s\n after:  %s", before, after)
	}
	checkLedger(t, st, "after abort")

	// Insert-then-delete inside one batch, on a pair that goes 2 → 3 → 2
	// → 1 → 0 → 1 occurrences before the batch commits.
	if _, err := st.Apply([]Op{
		Insert("r", x("y", "c1")), Delete("r", x("y", "c1")),
		Delete("r", x("y", "c0")), Delete("r", x("y", "c0")),
		Insert("r", x("y", "c2")),
	}); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, st, "in-batch insert-then-delete")

	// Constraint-less relation: duplicates, a same-batch delete, and an
	// extension that covers it afterwards.
	if _, err := st.Apply([]Op{
		Insert("audit", strs("u", "login")), Insert("audit", strs("u", "login")),
		Insert("audit", strs("v", "login")), Delete("audit", strs("v", "login")),
	}); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, st, "constraint-less relation")
	if n := liveCopies(t, st.Snapshot(), "audit", strs("u", "login")); n != 2 {
		t.Fatalf("%d live copies on the constraint-less relation, want 2", n)
	}
	if err := st.ExtendAccess(schema.MustAccessConstraint("audit", []string{"who"}, []string{"what"}, 10)); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, st, "extension covers the constraint-less relation")
	if n := liveCopies(t, st.Snapshot(), "audit", strs("u", "login")); n != 2 {
		t.Fatalf("%d live copies after the extension, want 2", n)
	}
	if err := st.Delete("audit", strs("u", "login")); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, st, "delete through the extension's groups")

	// A second constraint over a relation whose data holds duplicates.
	if _, err := st.Apply([]Op{Insert("r", x("y", "c2")), Insert("r", x("y", "c3"))}); err != nil {
		t.Fatal(err)
	}
	if err := st.ExtendAccess(schema.MustAccessConstraint("r", []string{"b"}, []string{"a", "c"}, 10)); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, st, "extension over duplicates")
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, st, "compact")
	if err := st.Delete("r", x("y", "c2")); err != nil {
		t.Fatal(err)
	}
	checkLedger(t, st, "witness delete after compact")
}

// TestBootstrapKeepsNoPerTupleState pins what live.New retains. Over a
// scene where X ∪ Y identifies the tuple under every constraint it keeps
// no record at all. Over MOT — one relation under 27 constraints — the
// eleven constraints that reach whole rows or test ids keep none either;
// the sixteen domain constraints ∅ → (attr, m) keep one record per
// domain value, which is a bound on the schema, not on |D|.
func TestBootstrapKeepsNoPerTupleState(t *testing.T) {
	social := datagen.Social()
	db, err := social.Build(1.0 / 32) // one physical copy per logical row
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(db, social.Access, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := ledgerSize(st); n != 0 {
		t.Errorf("duplicate-free social scene: live.New retained %d records over %d tuples, want 0", n, st.NumTuples())
	}
	checkLedger(t, st, "social bootstrap")

	mot := datagen.MOT()
	db, err = mot.Build(1.0 / 48)
	if err != nil {
		t.Fatal(err)
	}
	st, err = New(db, mot.Access, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var domainValues int64
	for _, ac := range mot.Access.Constraints() {
		led := st.ledger[ac.Key()]
		if len(ac.X) > 0 {
			if len(led) != 0 {
				t.Errorf("MOT %s: %d records, want 0 (every pair occurs once)", ac, len(led))
			}
			continue
		}
		if int64(len(led)) > ac.N {
			t.Errorf("MOT %s: %d records, more than its %d domain values", ac, len(led), ac.N)
		}
		domainValues += ac.N
	}
	if n := int64(ledgerSize(st)); n > domainValues {
		t.Errorf("MOT: live.New retained %d records, more than the schema's %d domain values (|D| = %d)", n, domainValues, st.NumTuples())
	}
	checkLedger(t, st, "MOT bootstrap")
}

// TestBootstrapAllocationsAreFlat: over an indexed base, live.New
// allocates the same whatever the relation's size when the repeated
// pairs are the same: the ledger is read off the index, one record per
// repeated pair, and no tuple is keyed.
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
			if _, err := New(db, acc, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := base(1000), base(4000)
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("live.New allocates %v objects over %d tuples and %v over %d with the same repeats", a, small.NumTuples(), b, large.NumTuples())
	}
	st, err := New(large, acc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ac := range acc.Constraints() {
		if n := len(st.ledger[ac.Key()]); n != 6 {
			t.Errorf("%s: %d ledger records, want one per repeated pair (6)", ac, n)
		}
	}
	checkLedger(t, st, "bootstrap")
}

// TestEntryOfAllocatesNothing pins the scan insert and delete share:
// locating an entry — the last one, and a missing one — in a 1 000-entry
// group compares values in place.
func TestEntryOfAllocatesNothing(t *testing.T) {
	yPos := []int{1}
	g := make([]storage.IndexEntry, 1000)
	for i := range g {
		tu := strs("x", fmt.Sprintf("y%04d", i))
		g[i] = storage.IndexEntry{Witness: tu, Pos: i}
	}
	last, missing := strs("x", "y0999"), strs("x", "nope")
	var at, none int
	if n := testing.AllocsPerRun(100, func() {
		at = entryOf(g, last, yPos)
		none = entryOf(g, missing, yPos)
	}); n != 0 {
		t.Errorf("entryOf allocated %.0f times per run, want 0", n)
	}
	if at != 999 || none != -1 {
		t.Errorf("entryOf = %d and %d, want 999 and -1", at, none)
	}
}
