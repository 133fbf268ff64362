package deduce

import (
	"math"
	"testing"
	"testing/quick"

	"bcq/internal/schema"
	"bcq/internal/spc"
)

func TestBoundArithmetic(t *testing.T) {
	b2, b3 := NewBound(2), NewBound(3)
	if b2.Mul(b3).Int64() != 6 {
		t.Error("2*3")
	}
	if b2.Add(b3).Int64() != 5 {
		t.Error("2+3")
	}
	if !b2.Less(b3) || b3.Less(b2) {
		t.Error("Less")
	}
	if b2.Min(b3) != b2 {
		t.Error("Min")
	}
	if Unbounded.Min(b2) != b2 || b2.Min(Unbounded) != b2 {
		t.Error("Min with Unbounded")
	}
	if !b2.Less(Unbounded) || Unbounded.Less(b2) {
		t.Error("Less vs Unbounded")
	}
	if !Unbounded.Mul(b2).IsUnbounded() || !b2.Add(Unbounded).IsUnbounded() {
		t.Error("Unbounded propagation")
	}
	if NewBound(-5).Int64() != 0 {
		t.Error("negative clamp")
	}
}

func TestBoundSaturation(t *testing.T) {
	big := NewBound(math.MaxInt64)
	if got := big.Mul(NewBound(2)); !got.Saturated() {
		t.Errorf("Mul did not saturate: %v", got)
	}
	if got := big.Add(NewBound(1)); !got.Saturated() {
		t.Errorf("Add did not saturate: %v", got)
	}
	if NewBound(0).Mul(big).Int64() != 0 {
		t.Error("0 * big must be 0")
	}
	if big.Mul(NewBound(0)).Int64() != 0 {
		t.Error("big * 0 must be 0")
	}
}

func TestBoundString(t *testing.T) {
	if Unbounded.String() != "∞" {
		t.Error("∞")
	}
	if NewBound(7).String() != "7" {
		t.Error("7")
	}
	if got := NewBound(math.MaxInt64).String(); got[0] != 0xE2 && got[0] != '>' && got[0] != 0x47 {
		// just check it is marked; exact glyph is cosmetic
		if got == "9223372036854775807" {
			t.Error("saturated bound not marked")
		}
	}
}

func TestBoundMulQuick(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := NewBound(int64(a)), NewBound(int64(b))
		return x.Mul(y).Int64() == int64(a)*int64(b) && x.Mul(y) == y.Mul(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- closure engine tests over the Example 1 fixture ---

func social() (*schema.Catalog, *schema.AccessSchema) {
	cat := schema.MustCatalog(
		schema.MustRelation("in_album", "photo_id", "album_id"),
		schema.MustRelation("friends", "user_id", "friend_id"),
		schema.MustRelation("tagging", "photo_id", "tagger_id", "taggee_id"),
	)
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("in_album", []string{"album_id"}, []string{"photo_id"}, 1000),
		schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000),
		schema.MustAccessConstraint("tagging", []string{"photo_id", "taggee_id"}, []string{"tagger_id"}, 1),
	)
	return cat, acc
}

const q0src = `
	query Q0:
	select t1.photo_id
	from in_album as t1, friends as t2, tagging as t3
	where t1.album_id = 'a0' and t2.user_id = 'u0'
	  and t1.photo_id = t3.photo_id
	  and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id
`

func q0Closure(t *testing.T) (*spc.Closure, *schema.AccessSchema) {
	t.Helper()
	cat, acc := social()
	cl, err := spc.NewClosure(spc.MustParse(q0src, cat), cat)
	if err != nil {
		t.Fatal(err)
	}
	return cl, acc
}

// actualize compiles the access schema against the closure's catalog and
// actualizes it on the closure's query.
func actualize(t *testing.T, cl *spc.Closure, acc *schema.AccessSchema) []Actualized {
	t.Helper()
	comp, err := acc.Compile(cl.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return Actualize(cl, comp)
}

func TestActualizeQ0(t *testing.T) {
	cl, acc := q0Closure(t)
	acts := actualize(t, cl, acc)
	// One constraint per relation, one atom per relation: 3 actualized.
	if len(acts) != 3 {
		t.Fatalf("actualized = %d, want 3", len(acts))
	}
	// Sorted by ascending N: tagging (1), in_album (1000), friends (5000).
	if acts[0].N != 1 || acts[1].N != 1000 || acts[2].N != 5000 {
		t.Errorf("order = %v, %v, %v", acts[0].N, acts[1].N, acts[2].N)
	}
	// The tagging constraint's X = {photo_id, taggee_id}: two classes.
	if len(acts[0].XClasses) != 2 {
		t.Errorf("tagging XClasses = %v", acts[0].XClasses)
	}
}

func TestActualizeSelfJoin(t *testing.T) {
	cat, acc := social()
	q := spc.MustParse(`select f1.friend_id from friends as f1, friends as f2
		where f1.friend_id = f2.user_id and f1.user_id = 'u0'`, cat)
	cl, err := spc.NewClosure(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	acts := actualize(t, cl, acc)
	// The friends constraint actualizes on both atoms.
	n := 0
	for _, a := range acts {
		if acc.Constraints()[a.Ord].Rel == "friends" {
			n++
		}
	}
	if n != 2 {
		t.Errorf("friends actualizations = %d, want 2", n)
	}
}

func TestCloseQ0FromXC(t *testing.T) {
	cl, acc := q0Closure(t)
	acts := actualize(t, cl, acc)
	res := Close(cl, acts, cl.XC())
	// Example 5/7 of the paper: the closure from X_C covers every
	// parameter of Q0.
	if !res.Covers(cl.Params()) {
		t.Fatalf("closure misses %v", cl.ClassSetNames(missingSet(cl, res)))
	}
	// photo_id's class is reached with bound 1000 (via the album
	// constraint), friend/tagger with bound ≤ 5000.
	pid := cl.MustClass(spc.AttrRef{Atom: 0, Attr: "photo_id"})
	if res.BoundOf[pid].IsUnbounded() || res.BoundOf[pid].Int64() != 1000 {
		t.Errorf("bound(photo_id) = %v, want 1000", res.BoundOf[pid])
	}
	tagger := cl.MustClass(spc.AttrRef{Atom: 2, Attr: "tagger_id"})
	if res.BoundOf[tagger].IsUnbounded() {
		t.Error("tagger unbounded")
	}
}

func missingSet(cl *spc.Closure, res *Result) spc.ClassSet {
	s := spc.NewClassSet(cl.NumClasses())
	for _, c := range res.Missing(cl.Params()) {
		s.Add(c)
	}
	return s
}

func TestCloseQ1FromXCFails(t *testing.T) {
	cat, acc := social()
	q := spc.MustParse(`select t1.photo_id
		from in_album as t1, friends as t2, tagging as t3
		where t1.photo_id = t3.photo_id
		  and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id`, cat)
	cl, err := spc.NewClosure(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	res := Close(cl, actualize(t, cl, acc), cl.XC())
	// Q1 has no constants: X_C = ∅, nothing fires.
	if res.Covers(cl.Params()) {
		t.Error("parameterized Q1 must not be covered from an empty X_C")
	}
	if len(res.Steps) != 0 {
		t.Errorf("steps = %v, want none", res.Steps)
	}
}

func TestCloseDerivationOrderPrefersCheapConstraints(t *testing.T) {
	// Two constraints can cover class y from x: N=5 and N=100. The
	// ascending-N actualization order must make the cheap one fire first.
	cat := schema.MustCatalog(schema.MustRelation("r", "x", "y"))
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 100),
		schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 5),
	)
	q := spc.MustParse("select y from r where x = 1", cat)
	cl, err := spc.NewClosure(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	res := Close(cl, actualize(t, cl, acc), cl.XC())
	y := cl.MustClass(spc.AttrRef{Atom: 0, Attr: "y"})
	if res.BoundOf[y].Int64() != 5 {
		t.Errorf("bound(y) = %v, want 5 (cheap constraint first)", res.BoundOf[y])
	}
	if len(res.Steps) != 1 {
		t.Errorf("steps = %d, want 1 (second firing covers nothing new)", len(res.Steps))
	}
}

func TestCloseChainsTransitively(t *testing.T) {
	// x -> y (3), y -> z (4): closure from {x} must reach z with bound 12.
	cat := schema.MustCatalog(schema.MustRelation("r", "x", "y", "z"))
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 3),
		schema.MustAccessConstraint("r", []string{"y"}, []string{"z"}, 4),
	)
	q := spc.MustParse("select z from r where x = 1", cat)
	cl, err := spc.NewClosure(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	res := Close(cl, actualize(t, cl, acc), cl.XC())
	z := cl.MustClass(spc.AttrRef{Atom: 0, Attr: "z"})
	if !res.Reached.Has(z) {
		t.Fatal("z not reached")
	}
	if res.BoundOf[z].Int64() != 12 {
		t.Errorf("bound(z) = %v, want 12", res.BoundOf[z])
	}
	if len(res.Steps) != 2 {
		t.Errorf("steps = %d, want 2", len(res.Steps))
	}
}

func TestCloseCrossAtomViaSharedClass(t *testing.T) {
	// Transitivity across atoms: s.b joins r.y; x -> y on r, b -> c on s.
	cat := schema.MustCatalog(
		schema.MustRelation("r", "x", "y"),
		schema.MustRelation("s", "b", "c"),
	)
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 3),
		schema.MustAccessConstraint("s", []string{"b"}, []string{"c"}, 7),
	)
	q := spc.MustParse("select s.c from r, s where r.y = s.b and r.x = 1", cat)
	cl, err := spc.NewClosure(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	res := Close(cl, actualize(t, cl, acc), cl.XC())
	c := cl.MustClass(spc.AttrRef{Atom: 1, Attr: "c"})
	if !res.Reached.Has(c) {
		t.Fatal("cross-atom propagation failed")
	}
	if res.BoundOf[c].Int64() != 21 {
		t.Errorf("bound(c) = %v, want 3*7 = 21", res.BoundOf[c])
	}
}

func TestCloseEmptyXConstraintFiresFromEmptySeed(t *testing.T) {
	cat := schema.MustCatalog(schema.MustRelation("r", "m", "v"))
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", nil, []string{"m"}, 12),
		schema.MustAccessConstraint("r", []string{"m"}, []string{"v"}, 2),
	)
	q := spc.MustParse("select v from r", cat)
	cl, err := spc.NewClosure(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	res := Close(cl, actualize(t, cl, acc), cl.XC()) // X_C is empty
	v := cl.MustClass(spc.AttrRef{Atom: 0, Attr: "v"})
	if !res.Reached.Has(v) {
		t.Fatal("empty-X constraint did not bootstrap the closure")
	}
	if res.BoundOf[v].Int64() != 24 {
		t.Errorf("bound(v) = %v, want 12*2", res.BoundOf[v])
	}
}

func TestBoundOfSetProducts(t *testing.T) {
	cl, acc := q0Closure(t)
	res := Close(cl, actualize(t, cl, acc), cl.XC())
	if got := res.BoundOfSet(cl.XC()); got.Int64() != 1 {
		t.Errorf("bound(X_C) = %v, want 1", got)
	}
	if got := res.BoundOfSet(cl.Params()); got.IsUnbounded() {
		t.Error("params unbounded")
	}
}
