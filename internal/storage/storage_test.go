package storage

import (
	"errors"
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
		if len(e.Witness) != 2 || e.Witness[1] != value.Str("a0") || !e.Witness.Equal(db.MustRelation("in_album").Tuples[e.Pos]) {
			t.Errorf("witness = %v at %d", e.Witness, e.Pos)
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
