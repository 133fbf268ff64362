package bcq

import (
	"math/rand"
	"slices"
	"testing"

	"bcq/internal/spc"
)

// TestPositionalWitnessesMatchNames is the oracle for the analysis's
// per-atom tables, over the seeded corpus of TestPlanDigestUnchanged: for
// every atom, X^i_Q as positions names the attributes the query's
// references name, the witness acts are exactly the constraints of the
// atom's relation with X ⊆ X^i_Q ⊆ X ∪ Y, in declaration order, and each
// act's cover bit says whether X ∪ Y spans X^i_Q — all three evaluated
// here on attribute names, the form the analysis does not use.
func TestPositionalWitnessesMatchNames(t *testing.T) {
	witnessed := 0
	for i := 0; i < digestCases; i++ {
		cat, acc, _, text := digestCase(t, rand.New(rand.NewSource(int64(7919*i+13))))
		q, err := ParseQuery(text, cat)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		a, err := Analyze(cat, q, acc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		an := a.an

		// X^i_Q by name: every attribute a reference of the query names.
		params := make([]map[string]bool, len(q.Atoms))
		for k := range params {
			params[k] = map[string]bool{}
		}
		note := func(ref spc.AttrRef) { params[ref.Atom][ref.Attr] = true }
		for _, e := range q.EqAttrs {
			note(e.L)
			note(e.R)
		}
		for _, e := range q.EqConsts {
			note(e.A)
		}
		for _, ref := range q.Placeholders {
			note(ref)
		}
		for _, col := range q.Output {
			note(col.Ref)
		}
		within := func(names map[string]bool, attrs ...[]string) bool {
			for name := range names {
				found := false
				for _, list := range attrs {
					found = found || slices.Contains(list, name)
				}
				if !found {
					return false
				}
			}
			return true
		}

		for atom := range q.Atoms {
			rel := an.Closure.Relation(atom)
			for p, name := range rel.Attrs() {
				if got := an.Closure.AtomParamSet(atom).Has(p); got != params[atom][name] {
					t.Errorf("case %d atom %d: %s in X^i_Q positionally %v, by name %v", i, atom, name, got, params[atom][name])
				}
			}
			var want []int
			if len(params[atom]) > 0 {
				for ord, ac := range acc.Constraints() {
					xInP := true
					for _, x := range ac.X {
						xInP = xInP && params[atom][x]
					}
					if ac.Rel == q.Atoms[atom].Rel && xInP && within(params[atom], ac.X, ac.Y) {
						want = append(want, ord)
					}
				}
			}
			var got []int
			for _, ai := range an.Witnesses(atom) {
				if an.Acts[ai].Atom != atom {
					t.Errorf("case %d atom %d: witness act %d is on atom %d", i, atom, ai, an.Acts[ai].Atom)
				}
				got = append(got, an.Acts[ai].Ord)
			}
			if !slices.Equal(got, want) {
				t.Errorf("case %d atom %d: witnesses %v, by name %v", i, atom, got, want)
			}
			witnessed += len(want)
			if indexed := len(params[atom]) == 0 || len(want) > 0; an.Indexed(atom) != indexed {
				t.Errorf("case %d atom %d: indexed %v, by name %v", i, atom, an.Indexed(atom), indexed)
			}
			// Every constraint of the relation is actualized on the atom
			// once, and its cover bit is X ∪ Y ⊇ X^i_Q.
			var ords []int
			for ai, act := range an.Acts {
				if act.Atom != atom {
					continue
				}
				ords = append(ords, act.Ord)
				ac := acc.Constraints()[act.Ord]
				if got, want := an.Covers(ai), within(params[atom], ac.X, ac.Y); got != want {
					t.Errorf("case %d atom %d: act %d (%s) covers %v, by name %v", i, atom, ai, ac, got, want)
				}
			}
			slices.Sort(ords)
			var rels []int
			for ord, ac := range acc.Constraints() {
				if ac.Rel == q.Atoms[atom].Rel {
					rels = append(rels, ord)
				}
			}
			if !slices.Equal(ords, rels) {
				t.Errorf("case %d atom %d: actualized constraints %v, relation's %v", i, atom, ords, rels)
			}
		}
	}
	if witnessed == 0 {
		t.Fatal("the corpus produced no witness: the oracle compares nothing")
	}
}
