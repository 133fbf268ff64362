package schema

import (
	"strings"
	"testing"
)

func TestNewRelationValidation(t *testing.T) {
	if _, err := NewRelation("", "a"); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewRelation("r"); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := NewRelation("r", "a", "a"); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewRelation("r", "a", ""); err == nil {
		t.Error("empty attribute accepted")
	}
	r, err := NewRelation("r", "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if r.Arity() != 3 || r.Name() != "r" {
		t.Fatalf("relation = %v", r)
	}
	if r.Pos("b") != 1 || r.Pos("zz") != -1 {
		t.Error("Pos wrong")
	}
	if !r.Has("c") || r.Has("d") {
		t.Error("Has wrong")
	}
	if got := r.String(); got != "r(a, b, c)" {
		t.Errorf("String() = %q", got)
	}
}

func TestRelationPositions(t *testing.T) {
	r := MustRelation("r", "a", "b", "c")
	pos, err := r.Positions([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if pos[0] != 2 || pos[1] != 0 {
		t.Fatalf("Positions = %v", pos)
	}
	if _, err := r.Positions([]string{"nope"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestCatalog(t *testing.T) {
	c := MustCatalog(MustRelation("a", "x"), MustRelation("b", "y", "z"))
	if c.NumRelations() != 2 || c.NumAttrs() != 3 {
		t.Fatalf("counts wrong: %d rels, %d attrs", c.NumRelations(), c.NumAttrs())
	}
	if _, ok := c.Relation("a"); !ok {
		t.Error("lookup failed")
	}
	if _, ok := c.Relation("zz"); ok {
		t.Error("phantom relation")
	}
	if err := c.Add(MustRelation("a", "q")); err == nil {
		t.Error("duplicate relation accepted")
	}
	names := c.SortedNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("SortedNames = %v", names)
	}
}

func TestNewAccessConstraintNormalization(t *testing.T) {
	ac, err := NewAccessConstraint("r", []string{"b", "a", "b"}, []string{"c", "a", "d"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ac.X, ",") != "a,b" {
		t.Errorf("X = %v", ac.X)
	}
	// "a" is in X, so it is dropped from Y.
	if strings.Join(ac.Y, ",") != "c,d" {
		t.Errorf("Y = %v", ac.Y)
	}
	if _, err := NewAccessConstraint("r", []string{"a"}, []string{"a"}, 1); err == nil {
		t.Error("Y ⊆ X accepted")
	}
	if _, err := NewAccessConstraint("r", nil, []string{"a"}, 0); err == nil {
		t.Error("bound 0 accepted")
	}
	if _, err := NewAccessConstraint("", nil, []string{"a"}, 1); err == nil {
		t.Error("empty relation accepted")
	}
}

func TestAccessConstraintHelpers(t *testing.T) {
	ac := MustAccessConstraint("r", []string{"x"}, []string{"y"}, 3)
	if strings.Join(ac.XY(), ",") != "x,y" {
		t.Errorf("XY = %v", ac.XY())
	}
	if got := ac.String(); got != "r: (x) -> (y, 3)" {
		t.Errorf("String = %q", got)
	}
}

func TestAccessConstraintValidate(t *testing.T) {
	cat := MustCatalog(MustRelation("r", "x", "y"))
	if err := MustAccessConstraint("r", []string{"x"}, []string{"y"}, 1).Validate(cat); err != nil {
		t.Errorf("valid constraint rejected: %v", err)
	}
	if err := MustAccessConstraint("nope", []string{"x"}, []string{"y"}, 1).Validate(cat); err == nil {
		t.Error("unknown relation accepted")
	}
	if err := MustAccessConstraint("r", []string{"q"}, []string{"y"}, 1).Validate(cat); err == nil {
		t.Error("unknown X attribute accepted")
	}
	if err := MustAccessConstraint("r", []string{"x"}, []string{"q"}, 1).Validate(cat); err == nil {
		t.Error("unknown Y attribute accepted")
	}
}

func TestAccessSchemaBasics(t *testing.T) {
	a := MustAccessSchema(
		MustAccessConstraint("r", []string{"x"}, []string{"y"}, 10),
		MustAccessConstraint("r", []string{"y"}, []string{"z"}, 2),
		MustAccessConstraint("s", nil, []string{"m"}, 12),
	)
	if a.Size() != 3 {
		t.Fatalf("Size = %d", a.Size())
	}
	if got := len(a.ForRelation("r")); got != 2 {
		t.Errorf("ForRelation(r) has %d constraints", got)
	}
	if err := a.Add(MustAccessConstraint("r", []string{"x"}, []string{"y"}, 10)); err == nil {
		t.Error("exact duplicate accepted")
	}
	// Same X and Y but a different bound is a distinct (subsuming)
	// constraint and must be allowed.
	if err := a.Add(MustAccessConstraint("r", []string{"x"}, []string{"y"}, 99)); err != nil {
		t.Errorf("same-shape constraint with different N rejected: %v", err)
	}
	r2 := a.Restrict(2)
	if r2.Size() != 2 || a.Size() != 4 {
		t.Error("Restrict must copy, not mutate")
	}
	if a.Restrict(99).Size() != 4 {
		t.Error("Restrict beyond size must cap")
	}
}

// indexed answers "is attrs indexed in A" from the compiled schema, the
// way the analysis does: the empty set is; otherwise the constraint of
// rel with the smallest N (the first declared among equals) whose
// positions witness the set.
func indexed(t *testing.T, a *AccessSchema, cat *Catalog, rel string, attrs []string) (AccessConstraint, bool) {
	t.Helper()
	comp, err := a.Compile(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) == 0 {
		return AccessConstraint{}, true
	}
	r, ok := cat.Relation(rel)
	if !ok {
		return AccessConstraint{}, false
	}
	p := make(AttrSet, AttrWords(r.Arity()))
	for _, name := range attrs {
		p.Add(r.Pos(name))
	}
	var w AccessConstraint
	found := false
	for ord, ac := range a.Constraints() {
		if rc := comp.Constraint(ord); rc.Rel == r && rc.Witnesses(p) && (!found || ac.N < w.N) {
			w, found = ac, true
		}
	}
	return w, found
}

func TestIndexed(t *testing.T) {
	cat := MustCatalog(MustRelation("r", "w", "x", "y", "z"), MustRelation("nope", "x"))
	a := MustAccessSchema(
		MustAccessConstraint("r", []string{"x"}, []string{"y", "w"}, 10),
		MustAccessConstraint("r", []string{"x", "y"}, []string{"z"}, 2),
	)
	// {x, y} is indexed two ways: via (x) -> (y, w, 10) and via
	// (x, y) -> (z, 2) whose X covers the whole set; the cheaper wins.
	if w, ok := indexed(t, a, cat, "r", []string{"y", "x"}); !ok || w.N != 2 {
		t.Errorf("Indexed(x,y) = %v, %v", w, ok)
	}
	// {x, y, z} needs the second constraint (x,y -> z).
	if w, ok := indexed(t, a, cat, "r", []string{"z", "x", "y"}); !ok || w.N != 2 {
		t.Errorf("Indexed(x,y,z) = %v, %v", w, ok)
	}
	// {z} alone: no constraint has X ⊆ {z}.
	if _, ok := indexed(t, a, cat, "r", []string{"z"}); ok {
		t.Error("Indexed(z) should fail")
	}
	// Empty set is trivially indexed.
	if _, ok := indexed(t, a, cat, "r", nil); !ok {
		t.Error("empty set must be indexed")
	}
	// A relation without constraints: not indexed.
	if _, ok := indexed(t, a, cat, "nope", []string{"x"}); ok {
		t.Error("unconstrained relation indexed")
	}
}

func TestIndexedPrefersSmallestBound(t *testing.T) {
	cat := MustCatalog(MustRelation("r", "w", "x", "y"))
	a := MustAccessSchema(
		MustAccessConstraint("r", []string{"x"}, []string{"y"}, 100),
		MustAccessConstraint("r", []string{"x", "y"}, []string{"w"}, 1),
		MustAccessConstraint("r", []string{"y"}, []string{"x"}, 7),
	)
	// All three witness {x, y}; the N=1 one must win.
	if w, ok := indexed(t, a, cat, "r", []string{"x", "y"}); !ok || w.N != 1 {
		t.Errorf("want the N=1 witness, got %v (ok=%v)", w, ok)
	}
}

func TestParseDDL(t *testing.T) {
	src := `
# social network, Example 1
relation in_album(photo_id, album_id)
relation friends(user_id, friend_id)
relation tagging(photo_id, tagger_id, taggee_id)

constraint in_album: (album_id) -> (photo_id, 1000)
constraint friends: (user_id) -> (friend_id, 5000)   # 5000 friends max
constraint tagging: (photo_id, taggee_id) -> (tagger_id, 1)
constraint tagging: () -> (taggee_id, 500000)
`
	cat, acc, err := ParseDDL(src)
	if err != nil {
		t.Fatal(err)
	}
	if cat.NumRelations() != 3 {
		t.Fatalf("relations = %d", cat.NumRelations())
	}
	if acc.Size() != 4 {
		t.Fatalf("constraints = %d", acc.Size())
	}
	ac := acc.ForRelation("tagging")[0]
	if ac.N != 1 || len(ac.X) != 2 {
		t.Errorf("tagging constraint = %v", ac)
	}
	if empty := acc.ForRelation("tagging")[1]; len(empty.X) != 0 || empty.N != 500000 {
		t.Errorf("empty-X constraint = %v", empty)
	}
}

func TestParseDDLErrors(t *testing.T) {
	bad := []string{
		"relatoin r(a)",
		"relation r(a)\nrelation r(b)",
		"constraint r: (a) -> (b, 1)",                      // relation not declared
		"relation r(a, b)\nconstraint r: a -> (b, 1)",      // missing parens
		"relation r(a, b)\nconstraint r: (a) -> (b)",       // missing bound
		"relation r(a, b)\nconstraint r: (a) -> (b, zero)", // bad bound
		"relation r(a, b)\nconstraint r: (c) -> (b, 1)",    // unknown attr
		"relation r(1a)",                                   // bad identifier
	}
	for _, src := range bad {
		if _, _, err := ParseDDL(src); err == nil {
			t.Errorf("ParseDDL accepted %q", src)
		}
	}
}

func TestParseDDLRoundTrip(t *testing.T) {
	src := "relation r(a, b, c)\nconstraint r: (a) -> (b, 7)"
	cat, acc, err := ParseDDL(src)
	if err != nil {
		t.Fatal(err)
	}
	// Render and re-parse; should be stable.
	rendered := ""
	for _, r := range cat.Relations() {
		rendered += "relation " + r.String() + "\n"
	}
	for _, ac := range acc.Constraints() {
		rendered += "constraint " + ac.String() + "\n"
	}
	cat2, acc2, err := ParseDDL(rendered)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", rendered, err)
	}
	if cat2.String() != cat.String() || acc2.String() != acc.String() {
		t.Error("round trip changed the schema")
	}
}

// TestKeyIsInterned: a constraint built by the constructor answers Key
// from a field — the stores and the planner call it per probe and per
// estimate — a hand-built literal renders the same string on demand, and
// a schema interns the key of a literal it takes in.
func TestKeyIsInterned(t *testing.T) {
	ac := MustAccessConstraint("tagging", []string{"taggee_id", "photo_id"}, []string{"tagger_id"}, 1)
	const want = "tagging|photo_id,taggee_id|tagger_id|1"
	var got string
	if n := testing.AllocsPerRun(100, func() { got = ac.Key() }); n != 0 {
		t.Errorf("Key() on a constructed constraint allocates %v times, want 0", n)
	}
	if got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
	literal := AccessConstraint{Rel: "tagging", X: []string{"photo_id", "taggee_id"}, Y: []string{"tagger_id"}, N: 1}
	if literal.Key() != want {
		t.Errorf("hand-built literal: Key() = %q, want %q", literal.Key(), want)
	}
	if k := MustAccessConstraint("calendar", nil, []string{"month"}, 12).Key(); k != "calendar||month|12" {
		t.Errorf("empty X: Key() = %q", k)
	}

	a := MustAccessSchema(MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000))
	if err := a.Add(literal); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(ac); err == nil {
		t.Error("a constructed constraint equal to a literal already held was not a duplicate")
	}
	if n := testing.AllocsPerRun(100, func() { got = a.Constraints()[1].Key() }); n != 0 || got != want {
		t.Errorf("Key() of a literal a schema took in: %q, %v allocations; want %q and 0", got, n, want)
	}
}
