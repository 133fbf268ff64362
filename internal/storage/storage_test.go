package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/value"
)

func socialCatalog() *schema.Catalog {
	return schema.MustCatalog(
		schema.MustRelation("in_album", "photo_id", "album_id"),
		schema.MustRelation("friends", "user_id", "friend_id"),
		schema.MustRelation("tagging", "photo_id", "tagger_id", "taggee_id"),
	)
}

func socialAccess() *schema.AccessSchema {
	return schema.MustAccessSchema(
		schema.MustAccessConstraint("in_album", []string{"album_id"}, []string{"photo_id"}, 1000),
		schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000),
		schema.MustAccessConstraint("tagging", []string{"photo_id", "taggee_id"}, []string{"tagger_id"}, 1),
	)
}

func smallSocialDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase(socialCatalog())
	ins := func(rel string, vals ...value.Value) {
		t.Helper()
		if err := db.Insert(rel, value.Tuple(vals)); err != nil {
			t.Fatal(err)
		}
	}
	// Album a0 has photos p1, p2; album a1 has p3.
	ins("in_album", value.Str("p1"), value.Str("a0"))
	ins("in_album", value.Str("p2"), value.Str("a0"))
	ins("in_album", value.Str("p3"), value.Str("a1"))
	// u0 is friends with f1, f2.
	ins("friends", value.Str("u0"), value.Str("f1"))
	ins("friends", value.Str("u0"), value.Str("f2"))
	ins("friends", value.Str("u1"), value.Str("f1"))
	// p1: u0 tagged by f1; p2: u0 tagged by stranger s9; p3: u1 tagged by f2.
	ins("tagging", value.Str("p1"), value.Str("f1"), value.Str("u0"))
	ins("tagging", value.Str("p2"), value.Str("s9"), value.Str("u0"))
	ins("tagging", value.Str("p3"), value.Str("f2"), value.Str("u1"))
	return db
}

func TestInsertValidation(t *testing.T) {
	db := NewDatabase(socialCatalog())
	if err := db.Insert("nope", value.Tuple{value.Int(1)}); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := db.Insert("friends", value.Tuple{value.Int(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestInsertSealedTypedError(t *testing.T) {
	db := smallSocialDB(t)
	if err := db.BuildIndexes(socialAccess()); err != nil {
		t.Fatal(err)
	}
	err := db.Insert("friends", value.Tuple{value.Str("u9"), value.Str("f9")})
	if err == nil {
		t.Fatal("insert into sealed database accepted")
	}
	if !errors.Is(err, ErrSealed) {
		t.Errorf("sealed insert error %v does not match ErrSealed", err)
	}
	var se *SealedError
	if !errors.As(err, &se) || se.Rel != "friends" {
		t.Errorf("sealed insert error %v does not name the relation", err)
	}
	// Non-sealed failures must stay distinguishable.
	if err := db.Insert("nope", value.Tuple{value.Int(1)}); errors.Is(err, ErrSealed) {
		t.Error("unknown-relation error matches ErrSealed")
	}
}

func TestNumTuples(t *testing.T) {
	db := smallSocialDB(t)
	if db.NumTuples() != 9 {
		t.Errorf("NumTuples = %d, want 9", db.NumTuples())
	}
}

func TestScanCountsAndStops(t *testing.T) {
	db := smallSocialDB(t)
	db.ResetStats()
	n := 0
	if err := db.Scan("friends", func(pos int, tu value.Tuple) bool {
		n++
		return n < 2
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("scan visited %d tuples, want 2 (early stop)", n)
	}
	if db.Stats().TuplesScanned != 2 {
		t.Errorf("TuplesScanned = %d", db.Stats().TuplesScanned)
	}
}

func TestBuildIndexesAndFetch(t *testing.T) {
	db := smallSocialDB(t)
	a := socialAccess()
	if err := db.BuildIndexes(a); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	ac := a.ForRelation("in_album")[0]
	entries, err := db.Fetch(ac, value.Tuple{value.Str("a0")})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("album a0 has %d photos in index, want 2", len(entries))
	}
	for _, e := range entries {
		// The entry is the relation's own tuple: Y (photo_id) is its
		// column 0, X (album_id) its column 1.
		if len(e.Witness()) != 2 || e.Witness()[1] != value.Str("a0") || !e.Witness().Equal(db.MustRelation("in_album").Tuples[e.Pos()]) {
			t.Errorf("witness = %v at %d", e.Witness(), e.Pos())
		}
	}
	st := db.Stats()
	if st.IndexLookups != 1 || st.TuplesFetched != 2 {
		t.Errorf("stats = %+v", st)
	}
	// Missing X-value: empty, still one lookup.
	entries, err = db.Fetch(ac, value.Tuple{value.Str("a99")})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("phantom album returned %v", entries)
	}
}

func TestFetchErrors(t *testing.T) {
	db := smallSocialDB(t)
	a := socialAccess()
	ac := a.ForRelation("in_album")[0]
	if _, err := db.Fetch(ac, value.Tuple{value.Str("a0")}); err == nil {
		t.Error("fetch without built index accepted")
	}
	if err := db.BuildIndexes(a); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Fetch(ac, value.Tuple{value.Str("a0"), value.Str("extra")}); err == nil {
		t.Error("wrong lookup arity accepted")
	}
}

func TestIndexDistinctYWithDuplicates(t *testing.T) {
	cat := schema.MustCatalog(schema.MustRelation("r", "x", "y", "junk"))
	db := NewDatabase(cat)
	// Five physical tuples, two distinct (x=1) -> y values.
	for i := 0; i < 5; i++ {
		y := int64(i % 2)
		if err := db.Insert("r", value.Tuple{value.Int(1), value.Int(y), value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	ac := schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 2)
	a := schema.MustAccessSchema(ac)
	if err := db.BuildIndexes(a); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	entries, err := db.Fetch(ac, value.Tuple{value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("distinct Y entries = %d, want 2 (duplicates must collapse)", len(entries))
	}
	if db.Stats().TuplesFetched != 2 {
		t.Errorf("TuplesFetched = %d, want 2", db.Stats().TuplesFetched)
	}
}

func TestSatisfiesViolation(t *testing.T) {
	cat := schema.MustCatalog(schema.MustRelation("r", "x", "y"))
	db := NewDatabase(cat)
	for i := int64(0); i < 4; i++ {
		if err := db.Insert("r", value.Tuple{value.Int(1), value.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	a := schema.MustAccessSchema(schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 3))
	err := db.Satisfies(a)
	if err == nil {
		t.Fatal("violation not detected")
	}
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("error type = %T", err)
	}
	if v.Distinct != 4 || v.AC.N != 3 {
		t.Errorf("violation = %+v", v)
	}
	ok := schema.MustAccessSchema(schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 4))
	if err := db.Satisfies(ok); err != nil {
		t.Errorf("N=4 should satisfy: %v", err)
	}
}

func TestEmptyXConstraint(t *testing.T) {
	cat := schema.MustCatalog(schema.MustRelation("cal", "day", "month"))
	db := NewDatabase(cat)
	for d := int64(0); d < 60; d++ {
		if err := db.Insert("cal", value.Tuple{value.Int(d), value.Int(d % 12)}); err != nil {
			t.Fatal(err)
		}
	}
	ac := schema.MustAccessConstraint("cal", nil, []string{"month"}, 12)
	if err := db.BuildIndexes(schema.MustAccessSchema(ac)); err != nil {
		t.Fatal(err)
	}
	entries, err := db.Fetch(ac, value.Tuple{})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Errorf("months = %d, want 12", len(entries))
	}
}

func TestRowIndexes(t *testing.T) {
	db := smallSocialDB(t)
	a := socialAccess()
	if err := db.BuildRowIndexes(a); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	pos, ok := db.RowLookup("friends", "user_id", value.Str("u0"))
	if !ok || len(pos) != 2 {
		t.Fatalf("RowLookup = %v, %v", pos, ok)
	}
	// Row indexes return duplicates (all matching rows), unlike access
	// indexes.
	if _, ok := db.RowLookup("friends", "friend_id", value.Str("f1")); ok {
		t.Error("friend_id is not in any constraint X; no row index expected")
	}
	tu, err := db.ReadAt("friends", pos[0])
	if err != nil {
		t.Fatal(err)
	}
	if tu[0] != value.Str("u0") {
		t.Errorf("ReadAt = %v", tu)
	}
	if db.Stats().TuplesFetched != 1 {
		t.Errorf("TuplesFetched = %d", db.Stats().TuplesFetched)
	}
	if _, err := db.ReadAt("friends", 99); err == nil {
		t.Error("out-of-range ReadAt accepted")
	}
}

func TestNonEmpty(t *testing.T) {
	db := smallSocialDB(t)
	db.ResetStats()
	ok, err := db.NonEmpty("friends")
	if err != nil || !ok {
		t.Fatalf("NonEmpty(friends) = %v, %v", ok, err)
	}
	if db.Stats().TuplesFetched != 1 {
		t.Errorf("non-emptiness probe must count one tuple, got %d", db.Stats().TuplesFetched)
	}
	empty := NewDatabase(socialCatalog())
	ok, err = empty.NonEmpty("friends")
	if err != nil || ok {
		t.Errorf("empty NonEmpty = %v, %v", ok, err)
	}
}

func TestUnifyDatabaseLemma1(t *testing.T) {
	db := smallSocialDB(t)
	udb, err := UnifyDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	if udb.NumTuples() != db.NumTuples() {
		t.Errorf("gD changed tuple count: %d vs %d", udb.NumTuples(), db.NumTuples())
	}
	wide := udb.MustRelation("unified")
	if wide.Schema.Arity() != 8 {
		t.Fatalf("wide arity = %d", wide.Schema.Arity())
	}
	// Every tuple has a tag and nulls outside its own columns.
	tagPos := wide.Schema.Pos("rel_tag")
	fuPos := wide.Schema.Pos("friends__user_id")
	iaPos := wide.Schema.Pos("in_album__photo_id")
	friendsSeen := 0
	for _, tu := range wide.Tuples {
		tag := tu[tagPos]
		if tag.Kind() != value.KindString {
			t.Fatalf("tag = %v", tag)
		}
		if tag == value.Str("friends") {
			friendsSeen++
			if tu[fuPos].IsNull() {
				t.Error("friends tuple missing user_id")
			}
			if !tu[iaPos].IsNull() {
				t.Error("friends tuple has non-null in_album column")
			}
		}
	}
	if friendsSeen != 3 {
		t.Errorf("friends tuples = %d, want 3", friendsSeen)
	}
}

func TestUnifiedSatisfiesRewrittenSchema(t *testing.T) {
	// The data-side and schema-side halves of Lemma 1 must agree: the
	// unified database satisfies the rewritten access schema.
	db := smallSocialDB(t)
	q := spc.MustParse("select photo_id from in_album where album_id = 'a0'", db.Catalog())
	udb, uq, ua, err := UnifyAll(db, q, socialAccess())
	if err != nil {
		t.Fatal(err)
	}
	if err := udb.Satisfies(ua); err != nil {
		t.Errorf("unified database violates rewritten schema: %v", err)
	}
	ucat, err := spc.UnifyCatalog(db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if err := uq.Validate(ucat); err != nil {
		t.Errorf("rewritten query invalid: %v", err)
	}
}

// mapIndex is the access index as it was built before the flat layout —
// a map from the rendered X-key to its group — kept as the reference the
// flat builder is checked against. order lists the X-keys as first seen.
type mapIndex struct {
	m        map[string][]IndexEntry
	order    []string
	maxGroup int
	entries  int64
}

// sameGroup compares two groups entry by entry: nil and empty are not
// alike, and each entry has the same position and an equal witness, every
// column of it.
func sameGroup(a, b []IndexEntry) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y IndexEntry) bool {
		return x.Pos() == y.Pos() && x.Witness().Equal(y.Witness())
	})
}

func buildMapIndex(rs *schema.Relation, ac schema.AccessConstraint, tuples []value.Tuple) (*mapIndex, error) {
	xPos, err := rs.Positions(ac.X)
	if err != nil {
		return nil, err
	}
	yPos, err := rs.Positions(ac.Y)
	if err != nil {
		return nil, err
	}
	idx := &mapIndex{m: make(map[string][]IndexEntry)}
	seen := make(map[string]bool)
	for pos, t := range tuples {
		xk := value.KeyOf(t, xPos)
		pair := xk + "\x00" + value.KeyOf(t, yPos)
		if seen[pair] {
			continue
		}
		seen[pair] = true
		idx.entries++
		if _, ok := idx.m[xk]; !ok {
			idx.order = append(idx.order, xk)
		}
		entries := append(idx.m[xk], MakeIndexEntry(t, pos))
		idx.m[xk] = entries
		idx.maxGroup = max(idx.maxGroup, len(entries))
		if int64(len(entries)) > ac.N {
			return nil, &ViolationError{AC: ac, XValue: t.Project(xPos), Distinct: int64(len(entries))}
		}
	}
	return idx, nil
}

// oraclePool mixes values that must stay apart (Int(1), Str("1"), null
// and Int(0), whose hashes may collide) with a few that make groups.
var oraclePool = []value.Value{
	value.Int(0), value.Int(1), value.Int(2), value.Int(-7),
	value.Str("1"), value.Str("0"), value.Str(""), value.Str("bob"), value.Null,
}

// randomRelation draws n tuples over the relation's four columns from a
// pool of k values, re-inserting earlier tuples now and then so that
// pairs repeat.
func randomRelation(rng *rand.Rand, n, k int) []value.Tuple {
	out := make([]value.Tuple, 0, n)
	for len(out) < n {
		if len(out) > 0 && rng.Intn(4) == 0 {
			out = append(out, out[rng.Intn(len(out))])
			continue
		}
		t := make(value.Tuple, 4)
		for i := range t {
			t[i] = oraclePool[rng.Intn(k)]
		}
		out = append(out, t)
	}
	return out
}

// TestFlatIndexMatchesMapIndex: over random relations the flat builder
// agrees with the map builder it replaced — the same groups in the same
// first-seen order, the same witnesses in the same order within each, the
// same counts, nothing under absent X-values, and the same violation.
func TestFlatIndexMatchesMapIndex(t *testing.T) {
	// Attribute names sort differently from their positions, so X's
	// positions in the relation are not ascending.
	rs := schema.MustRelation("r", "c", "a", "d", "b")
	attrs := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		perm := rng.Perm(4)
		nx := 1 + rng.Intn(3)
		x := []string{}
		for _, i := range perm[:nx] {
			x = append(x, attrs[i])
		}
		y := []string{attrs[perm[nx]]}
		if nx < 3 && rng.Intn(2) == 0 {
			y = append(y, attrs[perm[nx+1]])
		}
		ac := schema.MustAccessConstraint("r", x, y, int64(1+rng.Intn(6)))
		tuples := randomRelation(rng, rng.Intn(200), 2+rng.Intn(len(oraclePool)-1))
		name := fmt.Sprintf("trial %d %s over %d tuples", trial, ac, len(tuples))

		want, werr := buildMapIndex(rs, ac, tuples)
		got, gerr := BuildAccessIndex(&Relation{Schema: rs, Tuples: tuples}, ac)
		if werr != nil || gerr != nil {
			if !reflect.DeepEqual(werr, gerr) {
				t.Fatalf("%s: violation %v, want %v", name, gerr, werr)
			}
			continue
		}
		if got.NumGroups() != int64(len(want.m)) || got.NumEntries() != want.entries || got.MaxGroup() != want.maxGroup {
			t.Fatalf("%s: shape (%d, %d, %d), want (%d, %d, %d)", name,
				got.NumGroups(), got.NumEntries(), got.MaxGroup(), len(want.m), want.entries, want.maxGroup)
		}
		xPos, _ := rs.Positions(ac.X)
		i := 0
		for g := range got.Groups() {
			if xk := value.KeyOf(g[0].Witness(), xPos); xk != want.order[i] || !sameGroup(g, want.m[xk]) {
				t.Fatalf("%s: group %d = %v, want %v", name, i, g, want.m[want.order[i]])
			}
			i++
		}
		for _, tu := range tuples {
			wg := want.m[value.KeyOf(tu, xPos)]
			if !sameGroup(got.LookupAt(tu, xPos), wg) || !sameGroup(got.Lookup(tu.Project(xPos)), wg) {
				t.Fatalf("%s: lookup of %s differs from %v", name, tu.Project(xPos), wg)
			}
		}
		for probe := 0; probe < 20; probe++ {
			xv := randomRelation(rng, 1, len(oraclePool))[0][:len(xPos)]
			if _, ok := want.m[xv.Key()]; !ok && got.Lookup(xv) != nil {
				t.Fatalf("%s: absent X-value %s found %v", name, xv, got.Lookup(xv))
			}
		}
		if got.Lookup(make(value.Tuple, len(xPos)+1)) != nil {
			t.Fatalf("%s: a lookup of the wrong arity found a group", name)
		}
		yPos, _ := rs.Positions(ac.Y)
		if reps, want := repeatsOf(got, tuples, xPos, yPos), recountRepeats(tuples, xPos, yPos); !reflect.DeepEqual(reps, want) {
			t.Fatalf("%s: repeats %v, want %v", name, reps, want)
		}
		checkRestore(t, name, rs, ac, tuples, got, rng)
	}
}

// repeatsOf is what an index's Repeats over its tuples say, keyed by
// pair: the positions of each repeated pair's occurrences, its witness's
// first.
func repeatsOf(idx *AccessIndex, tuples []value.Tuple, xPos, yPos []int) map[string][]int {
	out := make(map[string][]int)
	for e, ps := range idx.Repeats(slices.All(tuples)) {
		if ps[0] != e.Pos() || len(ps) < 2 || cap(ps) != len(ps) {
			return map[string][]int{"malformed run": ps}
		}
		out[value.KeyOf(e.Witness(), xPos)+"|"+value.KeyOf(e.Witness(), yPos)] = ps
	}
	return out
}

// recountRepeats keys every tuple's pair and keeps, for each pair met
// twice or more, the positions of its occurrences in scan order.
func recountRepeats(tuples []value.Tuple, xPos, yPos []int) map[string][]int {
	all := make(map[string][]int)
	for pos, tu := range tuples {
		k := value.KeyOf(tu, xPos) + "|" + value.KeyOf(tu, yPos)
		all[k] = append(all[k], pos)
	}
	out := make(map[string][]int)
	for k, ps := range all {
		if len(ps) > 1 {
			out[k] = ps
		}
	}
	return out
}

// checkRestore restores the built index from its groups, fed in a random
// order, and requires the same groups and repeats back. Then it corrupts
// the layout a segment could record: a group dropped, a witness replaced
// by a later tuple of its X-value, two witnesses of a group swapped — each
// must be refused — and a later tuple of a group added to it, which must be
// refused or restore the same index: what a restore installs is always
// what a scan builds.
func checkRestore(t *testing.T, name string, rs *schema.Relation, ac schema.AccessConstraint, tuples []value.Tuple, built *AccessIndex, rng *rand.Rand) {
	t.Helper()
	var groups [][]int
	for g := range built.Groups() {
		ps := make([]int, len(g))
		for i, e := range g {
			ps[i] = e.Pos()
		}
		groups = append(groups, ps)
	}
	restore := func(groups [][]int) (*AccessIndex, error) {
		db := NewDatabase(schema.MustCatalog(rs))
		db.MustRelation("r").Tuples = tuples
		r, err := db.RestoreIndex(ac)
		if err != nil {
			return nil, err
		}
		for _, ps := range groups {
			for _, p := range ps {
				if err := r.Add(p); err != nil {
					return nil, err
				}
			}
		}
		if err := r.Install(); err != nil {
			return nil, err
		}
		idx, _ := db.AccessIndexFor(ac)
		return idx, nil
	}
	same := func(got *AccessIndex) bool {
		if got.NumGroups() != built.NumGroups() || got.NumEntries() != built.NumEntries() || got.MaxGroup() != built.MaxGroup() {
			return false
		}
		for g := range built.Groups() {
			if !sameGroup(got.LookupAt(g[0].Witness(), built.xPos), g) {
				return false
			}
		}
		yPos, _ := rs.Positions(ac.Y)
		return reflect.DeepEqual(repeatsOf(got, tuples, built.xPos, yPos), repeatsOf(built, tuples, built.xPos, yPos))
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	if got, err := restore(groups); err != nil || !same(got) {
		t.Fatalf("%s: restore of the built groups: %v", name, err)
	}
	if len(groups) == 0 {
		return
	}
	if _, err := restore(groups[1:]); err == nil {
		t.Fatalf("%s: restore accepted a layout missing a group", name)
	}
	refused := func(gi int, ps []int, what string) {
		t.Helper()
		bad := slices.Clone(groups)
		bad[gi] = ps
		if _, err := restore(bad); err == nil {
			t.Fatalf("%s: restore accepted group %v, %s", name, ps, what)
		}
	}
	for gi, ps := range groups {
		if len(ps) > 1 {
			swapped := slices.Clone(ps)
			swapped[0], swapped[1] = swapped[1], swapped[0]
			refused(gi, swapped, "out of order")
		}
		for i, p := range ps {
			q := p + 1
			for q < len(tuples) && (!sameAt(tuples[q], built.xPos, tuples[p], built.xPos) || slices.Contains(ps, q)) {
				q++
			}
			if q == len(tuples) {
				continue
			}
			replaced := slices.Clone(ps)
			replaced[i] = q
			slices.Sort(replaced)
			refused(gi, replaced, fmt.Sprintf("%d in place of %d", q, p))
			bad := slices.Clone(groups)
			bad[gi] = append(slices.Clone(ps), q)
			slices.Sort(bad[gi])
			if got, err := restore(bad); err == nil && !same(got) {
				t.Fatalf("%s: restore of group %v installed another index", name, bad[gi])
			}
		}
	}
}

// TestBuildAllocationsAreFlat: building an index allocates the same
// number of objects whatever the relation's size — no per-group or
// per-entry allocation, no table growth — and probing a sealed database
// allocates the result slice alone, or nothing for a single Fetch.
func TestBuildAllocationsAreFlat(t *testing.T) {
	rs := schema.MustRelation("r", "x", "y", "z")
	ac := schema.MustAccessConstraint("r", []string{"x", "z"}, []string{"y"}, 8)
	rel := func(n int) *Relation {
		r := &Relation{Schema: rs}
		for i := 0; i < n; i++ {
			r.Tuples = append(r.Tuples, value.Tuple{value.Int(int64(i / 3)), value.Int(int64(i % 3)), value.Str(fmt.Sprint(i / 6))})
		}
		return r
	}
	allocs := func(r *Relation) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := BuildAccessIndex(r, ac); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(rel(1000)), allocs(rel(4000)); small != large {
		t.Errorf("BuildAccessIndex allocates %v objects over 1000 tuples and %v over 4000", small, large)
	}

	db := NewDatabase(schema.MustCatalog(rs))
	db.MustRelation("r").Tuples = rel(1000).Tuples
	if err := db.BuildIndexes(schema.MustAccessSchema(ac)); err != nil {
		t.Fatal(err)
	}
	xs := []value.Tuple{{value.Int(1), value.Str("0")}, {value.Int(7), value.Str("3")}, {value.Int(-1), value.Str("x")}}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := db.FetchBatch(ac, xs); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("FetchBatch allocates %v objects, want the result slice alone", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := db.Fetch(ac, xs[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Fetch allocates %v objects, want none", n)
	}
}
