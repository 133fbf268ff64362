package schema

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// AccessConstraint is one access constraint X → (Y, N) on a named relation
// (paper, Section 2). A database D satisfies it when for every X-value ā
// there are at most N distinct Y-values among tuples with t[X] = ā, and an
// index on X retrieves one witness tuple per distinct Y-value at a cost
// measured in N.
//
// X may be empty: ∅ → (Y, N) bounds the number of distinct Y-values in the
// whole relation (a "bounded domain" constraint with a trivial index).
type AccessConstraint struct {
	// Rel is the relation the constraint applies to.
	Rel string
	// X is the lookup attribute set (may be empty). Stored sorted.
	X []string
	// Y is the bounded attribute set (never empty). Stored sorted.
	Y []string
	// N is the cardinality bound, ≥ 1.
	N int64

	// key is the canonical identity Key returns, rendered once by
	// NewAccessConstraint. Empty on a hand-built literal, which Key
	// renders on demand.
	key string
}

// NewAccessConstraint normalizes and validates a constraint: attribute sets
// are deduplicated and sorted, Y must be non-empty, N ≥ 1. Attributes that
// appear in both X and Y are kept only in X (they are trivially determined).
func NewAccessConstraint(rel string, x, y []string, n int64) (AccessConstraint, error) {
	var ac AccessConstraint
	if rel == "" {
		return ac, fmt.Errorf("schema: access constraint with empty relation name")
	}
	if n < 1 {
		return ac, fmt.Errorf("schema: access constraint on %s with bound %d < 1", rel, n)
	}
	xs := dedupSorted(x)
	inX := make(map[string]bool, len(xs))
	for _, a := range xs {
		inX[a] = true
	}
	var ys []string
	for _, a := range dedupSorted(y) {
		if !inX[a] {
			ys = append(ys, a)
		}
	}
	if len(ys) == 0 {
		return ac, fmt.Errorf("schema: access constraint on %s has no Y attributes outside X", rel)
	}
	ac = AccessConstraint{Rel: rel, X: xs, Y: ys, N: n}
	ac.key = ac.renderKey()
	return ac, nil
}

// MustAccessConstraint is NewAccessConstraint that panics on error.
func MustAccessConstraint(rel string, x, y []string, n int64) AccessConstraint {
	ac, err := NewAccessConstraint(rel, x, y, n)
	if err != nil {
		panic(err)
	}
	return ac
}

func dedupSorted(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	w := 0
	for i, a := range out {
		if i == 0 || a != out[i-1] {
			out[w] = a
			w++
		}
	}
	return out[:w]
}

// XY returns the union X ∪ Y (sorted).
func (ac AccessConstraint) XY() []string {
	return dedupSorted(append(append([]string(nil), ac.X...), ac.Y...))
}

// Key returns a canonical identity string for the constraint, used to
// deduplicate and to key index maps. Constraints that differ only in N are
// distinct (a tighter bound subsumes a looser one but both may be declared).
// A constraint built by NewAccessConstraint carries the string, so the
// stores, the statistics and the planner — which all look constraints up
// by it, per probe and per cost estimate — read a field.
func (ac AccessConstraint) Key() string {
	if ac.key != "" {
		return ac.key
	}
	return ac.renderKey()
}

// renderKey formats "rel|x1,x2|y1,y2|N".
func (ac AccessConstraint) renderKey() string {
	n := len(ac.Rel) + 3 + 20
	for _, a := range ac.X {
		n += len(a) + 1
	}
	for _, a := range ac.Y {
		n += len(a) + 1
	}
	b := make([]byte, 0, n)
	b = append(b, ac.Rel...)
	for _, attrs := range [2][]string{ac.X, ac.Y} {
		b = append(b, '|')
		for i, a := range attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, a...)
		}
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, ac.N, 10)
	return string(b)
}

// String renders "rel: (x1, x2) -> (y1, y2, N)", matching the paper's
// notation.
func (ac AccessConstraint) String() string {
	return fmt.Sprintf("%s: (%s) -> (%s, %d)", ac.Rel, strings.Join(ac.X, ", "), strings.Join(ac.Y, ", "), ac.N)
}

// Validate checks that the constraint's attributes exist in the catalog.
func (ac AccessConstraint) Validate(c *Catalog) error {
	r, ok := c.Relation(ac.Rel)
	if !ok {
		return fmt.Errorf("schema: access constraint on unknown relation %s", ac.Rel)
	}
	for _, a := range ac.X {
		if !r.Has(a) {
			return fmt.Errorf("schema: access constraint %s: unknown attribute %s", ac, a)
		}
	}
	for _, a := range ac.Y {
		if !r.Has(a) {
			return fmt.Errorf("schema: access constraint %s: unknown attribute %s", ac, a)
		}
	}
	return nil
}

// AccessSchema is a set of access constraints over a catalog.
type AccessSchema struct {
	constraints []AccessConstraint
	byRel       map[string][]int // relation name -> indices into constraints
	seen        map[string]bool  // canonical keys, for deduplication
	// compiled is the schema resolved against the catalog it was last
	// compiled for (Compile); nil until then, and again after Add.
	compiled atomic.Pointer[Compiled]
}

// NewAccessSchema builds an access schema from constraints; duplicates
// (same relation, X and Y) are rejected.
func NewAccessSchema(constraints ...AccessConstraint) (*AccessSchema, error) {
	a := &AccessSchema{byRel: make(map[string][]int), seen: make(map[string]bool, len(constraints))}
	for _, ac := range constraints {
		if err := a.Add(ac); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// MustAccessSchema is NewAccessSchema that panics on error.
func MustAccessSchema(constraints ...AccessConstraint) *AccessSchema {
	a, err := NewAccessSchema(constraints...)
	if err != nil {
		panic(err)
	}
	return a
}

// Add appends a constraint, rejecting exact duplicates.
func (a *AccessSchema) Add(ac AccessConstraint) error {
	k := ac.Key()
	if a.seen[k] {
		return fmt.Errorf("schema: duplicate access constraint %s", ac)
	}
	a.seen[k] = true
	ac.key = k
	a.byRel[ac.Rel] = append(a.byRel[ac.Rel], len(a.constraints))
	a.constraints = append(a.constraints, ac)
	a.compiled.Store(nil)
	return nil
}

// Constraints returns all constraints in insertion order. Callers must not
// mutate the returned slice. A constraint's index in it is its dense
// ordinal in this schema — stable for the schema's lifetime, because
// constraints are only ever appended — and declaration order is what
// breaks the planner's ties between equally priced constraints.
func (a *AccessSchema) Constraints() []AccessConstraint { return a.constraints }

// Size returns ‖A‖, the number of access constraints.
func (a *AccessSchema) Size() int { return len(a.constraints) }

// ForRelation returns the constraints declared on the named relation.
func (a *AccessSchema) ForRelation(rel string) []AccessConstraint {
	idx := a.byRel[rel]
	out := make([]AccessConstraint, len(idx))
	for i, j := range idx {
		out[i] = a.constraints[j]
	}
	return out
}

// Validate checks every constraint against the catalog, in declaration
// order, reporting the first mismatch. The verdict is Compile's, so it is
// reached once per schema and catalog.
func (a *AccessSchema) Validate(c *Catalog) error {
	_, err := a.Compile(c)
	return err
}

// Restrict returns a new access schema containing only the first n
// constraints (insertion order). It is used by the ‖A‖-varying experiments
// (Figure 5 b/f/j).
func (a *AccessSchema) Restrict(n int) *AccessSchema {
	if n > len(a.constraints) {
		n = len(a.constraints)
	}
	out, err := NewAccessSchema(a.constraints[:n]...)
	if err != nil {
		// Impossible: a subset of a deduplicated list is deduplicated.
		panic(err)
	}
	return out
}

// String renders the constraints one per line, in insertion order.
func (a *AccessSchema) String() string {
	var b strings.Builder
	for i, ac := range a.constraints {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(ac.String())
	}
	return b.String()
}
