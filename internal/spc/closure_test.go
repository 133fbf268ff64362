package spc

import (
	"reflect"
	"sort"
	"testing"

	"bcq/internal/value"
)

func classSetAttrs(t *testing.T, c *Closure, s ClassSet) []string {
	t.Helper()
	var out []string
	for _, id := range s.Members() {
		for _, ref := range c.Members(id) {
			out = append(out, c.Query().RefString(ref))
		}
	}
	sort.Strings(out)
	return out
}

func TestClosureQ0Classes(t *testing.T) {
	c, err := NewClosure(mustQ0(), socialCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Satisfiable() {
		t.Fatal("Q0 is satisfiable")
	}
	// 7 attribute occurrences total; photo_id of t1 and t3 merge, and
	// tagger_id/friend_id merge, taggee_id/user_id merge -> 4 classes.
	if c.NumRefs() != 7 {
		t.Errorf("NumRefs = %d, want 7", c.NumRefs())
	}
	if c.NumClasses() != 4 {
		t.Errorf("NumClasses = %d, want 4", c.NumClasses())
	}
	// Σ_Q ⊢ t1.photo_id = t3.photo_id.
	if !c.Equal(AttrRef{0, "photo_id"}, AttrRef{2, "photo_id"}) {
		t.Error("pid1 = pid2 not derived")
	}
	if c.Equal(AttrRef{0, "photo_id"}, AttrRef{0, "album_id"}) {
		t.Error("photo_id = album_id wrongly derived")
	}
	// t3.taggee_id = t2.user_id = 'u0': constant propagates to the class.
	id := c.MustClass(AttrRef{2, "taggee_id"})
	v, ok := c.ConstOf(id)
	if !ok || v != value.Str("u0") {
		t.Errorf("taggee class constant = %v, %v", v, ok)
	}
}

func TestClosureQ0DerivedSets(t *testing.T) {
	c, err := NewClosure(mustQ0(), socialCatalog())
	if err != nil {
		t.Fatal(err)
	}
	// X_C: classes of album_id ('a0') and user_id/taggee_id ('u0').
	gotXC := classSetAttrs(t, c, c.XC())
	wantXC := []string{"t1.album_id", "t2.user_id", "t3.taggee_id"}
	if !reflect.DeepEqual(gotXC, wantXC) {
		t.Errorf("X_C = %v, want %v", gotXC, wantXC)
	}
	// X_B: condition classes not equal to output. Output is the photo_id
	// class, so X_B = {album class, user/taggee class, friend/tagger class}.
	gotXB := classSetAttrs(t, c, c.XB())
	wantXB := []string{"t1.album_id", "t2.friend_id", "t2.user_id", "t3.taggee_id", "t3.tagger_id"}
	if !reflect.DeepEqual(gotXB, wantXB) {
		t.Errorf("X_B = %v, want %v", gotXB, wantXB)
	}
	// Output class contains both photo_id occurrences.
	gotZ := classSetAttrs(t, c, c.OutClasses())
	wantZ := []string{"t1.photo_id", "t3.photo_id"}
	if !reflect.DeepEqual(gotZ, wantZ) {
		t.Errorf("Z = %v, want %v", gotZ, wantZ)
	}
}

func TestClosureAtomParams(t *testing.T) {
	c, err := NewClosure(mustQ0(), socialCatalog())
	if err != nil {
		t.Fatal(err)
	}
	// X^1_Q (atom 0, in_album): photo_id and album_id are both parameters.
	if got := atomParamNames(c, 0); !reflect.DeepEqual(got, []string{"album_id", "photo_id"}) {
		t.Errorf("X^1_Q = %v", got)
	}
	if got := atomParamNames(c, 1); !reflect.DeepEqual(got, []string{"friend_id", "user_id"}) {
		t.Errorf("X^2_Q = %v", got)
	}
	if got := atomParamNames(c, 2); !reflect.DeepEqual(got, []string{"photo_id", "taggee_id", "tagger_id"}) {
		t.Errorf("X^3_Q = %v", got)
	}
	// X^1_C: album_id is instantiated; photo_id is not.
	var inst []string
	for _, a := range atomParamNames(c, 0) {
		if c.XC().Has(c.MustClass(AttrRef{Atom: 0, Attr: a})) {
			inst = append(inst, a)
		}
	}
	if !reflect.DeepEqual(inst, []string{"album_id"}) {
		t.Errorf("X^1_C = %v", inst)
	}
}

// atomParamNames renders X^i_Q as the sorted names of atom i's parameter
// attributes.
func atomParamNames(c *Closure, i int) []string {
	var out []string
	for p, a := range c.Relation(i).Attrs() {
		if c.AtomParamSet(i).Has(p) {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

func TestClosureUnsatisfiable(t *testing.T) {
	q := MustParse(`select photo_id from in_album where album_id = 1 and album_id = 2`, socialCatalog())
	c, err := NewClosure(q, socialCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if c.Satisfiable() {
		t.Error("album_id = 1 and album_id = 2 must be unsatisfiable")
	}
}

func TestClosureUnsatisfiableViaTransitivity(t *testing.T) {
	q := MustParse(`select t1.photo_id from in_album as t1, tagging as t3
		where t1.photo_id = t3.photo_id and t1.photo_id = 1 and t3.photo_id = 2`, socialCatalog())
	c, err := NewClosure(q, socialCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if c.Satisfiable() {
		t.Error("transitive constant clash must be unsatisfiable")
	}
}

func TestClosureConsistentConstants(t *testing.T) {
	q := MustParse(`select t1.photo_id from in_album as t1, tagging as t3
		where t1.photo_id = t3.photo_id and t1.photo_id = 1 and t3.photo_id = 1`, socialCatalog())
	c, err := NewClosure(q, socialCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if !c.Satisfiable() {
		t.Error("consistent duplicate constants must stay satisfiable")
	}
}

func TestClosureBooleanQuery(t *testing.T) {
	q := MustParse("select exists from friends where friends.user_id = friends.friend_id", socialCatalog())
	c, err := NewClosure(q, socialCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if !c.OutClasses().IsEmpty() {
		t.Error("Boolean query has no output classes")
	}
	if c.XB().Len() != 1 {
		t.Errorf("X_B = %v", c.ClassSetNames(c.XB()))
	}
}

func TestClassQueriesUnknownRef(t *testing.T) {
	c, err := NewClosure(mustQ0(), socialCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if c.Class(AttrRef{Atom: 9, Attr: "x"}) != -1 {
		t.Error("unknown ref must map to -1")
	}
	if c.Equal(AttrRef{Atom: 9, Attr: "x"}, AttrRef{Atom: 0, Attr: "photo_id"}) {
		t.Error("unknown ref equality")
	}
	if _, ok := c.ConstOf(-1); ok {
		t.Error("ConstOf(-1)")
	}
}

func TestParamRefsDeterministic(t *testing.T) {
	c1, _ := NewClosure(mustQ0(), socialCatalog())
	c2, _ := NewClosure(mustQ0(), socialCatalog())
	if !reflect.DeepEqual(c1.ParamRefs(), c2.ParamRefs()) {
		t.Error("ParamRefs order unstable")
	}
}

func TestMembersOfAtom(t *testing.T) {
	c, _ := NewClosure(mustQ0(), socialCatalog())
	pidClass := c.MustClass(AttrRef{0, "photo_id"})
	if got := c.MembersOfAtom(pidClass, 2); !reflect.DeepEqual(got, []string{"photo_id"}) {
		t.Errorf("MembersOfAtom = %v", got)
	}
	if got := c.MembersOfAtom(pidClass, 1); got != nil {
		t.Errorf("MembersOfAtom(friends) = %v, want none", got)
	}
}

func TestClassSetOps(t *testing.T) {
	s := NewClassSet(4)
	s.Add(1)
	s.Add(70) // force growth
	if !s.Has(1) || !s.Has(70) || s.Has(2) {
		t.Error("Has wrong")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	u := s.Clone()
	u.Remove(1)
	if !s.Has(1) || u.Has(1) {
		t.Error("Clone/Remove aliasing")
	}
	var v ClassSet
	v.AddAll(s)
	if !v.Equal(s) || !v.ContainsAll(s) {
		t.Error("AddAll/Equal/ContainsAll")
	}
	v.Add(3)
	if s.ContainsAll(v) || !v.ContainsAll(s) {
		t.Error("ContainsAll direction")
	}
	if got := v.Members(); !reflect.DeepEqual(got, []int{1, 3, 70}) {
		t.Errorf("Members = %v", got)
	}
	var empty ClassSet
	if !empty.IsEmpty() || empty.Len() != 0 || empty.Has(0) {
		t.Error("empty set misbehaves")
	}
	if !empty.Equal(NewClassSet(10)) {
		t.Error("empty sets of different capacity must be Equal")
	}
}

// TestNewClosureResolvesOnce: a parsed query keeps its resolution and
// NewClosure reads it; a hand-built one is validated by NewClosure, which
// records nothing on it — analyses of one shared query write nothing to
// it — and is answered the same either way.
func TestNewClosureResolvesOnce(t *testing.T) {
	cat := socialCatalog()
	parsed := MustParse(q0Source, cat)
	if !parsed.resolvedFor(cat) {
		t.Fatal("Parse left the query unresolved")
	}
	hand := parsed.Clone()
	hand.res = resolution{}
	want, err := NewClosure(parsed, cat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewClosure(hand, cat)
	if err != nil {
		t.Fatal(err)
	}
	if hand.resolvedFor(cat) {
		t.Error("NewClosure recorded a resolution on the query it was given")
	}
	if got.NumClasses() != want.NumClasses() || !reflect.DeepEqual(got.classOf, want.classOf) ||
		!got.XB().Equal(want.XB()) || !got.XC().Equal(want.XC()) || !got.OutClasses().Equal(want.OutClasses()) {
		t.Error("a hand-built query's closure differs from the parsed query's")
	}
	// A list grown since the validation is validated again.
	parsed.EqConsts = append(parsed.EqConsts, EqConst{A: AttrRef{Atom: 0, Attr: "nope"}, C: value.Int(1)})
	if _, err := NewClosure(parsed, cat); err == nil {
		t.Error("a condition added after parsing was not validated")
	}
}
