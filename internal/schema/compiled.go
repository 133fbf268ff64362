package schema

import (
	"cmp"
	"slices"
)

// AttrSet is a set of attribute positions of one relation, as a bitset of
// AttrWords(arity) words. Two sets of one relation compare in a few word
// operations: the indexedness and coverage tests the analysis runs per
// atom and per constraint are each one SubsetOf.
type AttrSet []uint64

// AttrWords is the number of words an AttrSet over arity attributes holds.
func AttrWords(arity int) int { return (arity + 63) / 64 }

// Add inserts position p.
func (s AttrSet) Add(p int) { s[p/64] |= 1 << uint(p%64) }

// Has reports whether position p is in the set.
func (s AttrSet) Has(p int) bool { return s[p/64]&(1<<uint(p%64)) != 0 }

// IsEmpty reports whether the set has no positions.
func (s AttrSet) IsEmpty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every position of s is in t; both are sets of
// one relation.
func (s AttrSet) SubsetOf(t AttrSet) bool {
	for i, w := range s {
		if w&^t[i] != 0 {
			return false
		}
	}
	return true
}

// ResolvedConstraint is one access constraint X → (Y, N) resolved against
// its relation: X and Y as attribute positions and as sets.
type ResolvedConstraint struct {
	// Rel is the constraint's relation schema.
	Rel *Relation
	// N is the cardinality bound.
	N int64
	// XPos and YPos are the positions of X and Y, aligned with the
	// constraint's X and Y (sorted by name). Callers must not mutate them.
	XPos, YPos []int
	// X is X as a set, and XY is X ∪ Y.
	X, XY AttrSet
}

// Covers reports whether X ∪ Y spans every position of p.
func (rc *ResolvedConstraint) Covers(p AttrSet) bool { return p.SubsetOf(rc.XY) }

// Witnesses reports whether the constraint is an indexedness witness of
// the attribute set p (paper, Section 3.2): X ⊆ p ⊆ X ∪ Y. It is the one
// witness test: "p is indexed in A" holds when p is empty or some
// constraint of its relation witnesses it.
func (rc *ResolvedConstraint) Witnesses(p AttrSet) bool {
	return rc.X.SubsetOf(p) && rc.Covers(p)
}

// Compiled is an access schema resolved against one catalog: every
// constraint as positions and sets, and the order actualization visits
// them in. It is what the analysis reads instead of attribute names, and
// it is built once per schema and catalog (AccessSchema.Compile).
type Compiled struct {
	cat *Catalog
	gen uint64 // cat.gen when compiled
	err error  // the validation verdict; the rest is empty when set
	// cons holds the resolved constraints by ordinal (declaration order).
	cons []ResolvedConstraint
	// order lists the ordinals by ascending N, then declaration.
	order []int
}

// Constraint returns the constraint of the given ordinal (its index in
// AccessSchema.Constraints).
func (c *Compiled) Constraint(ord int) *ResolvedConstraint { return &c.cons[ord] }

// Order returns the constraints' ordinals by ascending bound N, ties in
// declaration order: the order deduce.Actualize instantiates them in.
// Callers must not mutate the returned slice.
func (c *Compiled) Order() []int { return c.order }

// Compile resolves the schema against a catalog, validating every
// constraint (the first mismatch in declaration order is the error). The
// result, verdict included, is kept on the schema and returned again until
// Add changes the schema or the catalog gains a relation; concurrent
// first uses may each build it, and every build is the same.
func (a *AccessSchema) Compile(cat *Catalog) (*Compiled, error) {
	c := a.compiled.Load()
	if c == nil || c.cat != cat || c.gen != cat.gen {
		c = compile(a.constraints, cat)
		a.compiled.Store(c)
	}
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}

func compile(constraints []AccessConstraint, cat *Catalog) *Compiled {
	c := &Compiled{cat: cat, gen: cat.gen}
	words, positions := 0, 0
	for _, ac := range constraints {
		if err := ac.Validate(cat); err != nil {
			c.err = err
			return c
		}
		r, _ := cat.Relation(ac.Rel)
		words += 2 * AttrWords(r.Arity())
		positions += len(ac.X) + len(ac.Y)
	}
	c.cons = make([]ResolvedConstraint, len(constraints))
	c.order = make([]int, len(constraints))
	sets := make([]uint64, words)
	pos := make([]int, 0, positions)
	for ord, ac := range constraints {
		r, _ := cat.Relation(ac.Rel)
		w := AttrWords(r.Arity())
		rc := ResolvedConstraint{Rel: r, N: ac.N, X: sets[:w:w], XY: sets[w : 2*w : 2*w]}
		sets = sets[2*w:]
		for _, a := range ac.X {
			p := r.Pos(a)
			pos = append(pos, p)
			rc.X.Add(p)
			rc.XY.Add(p)
		}
		rc.XPos = pos[len(pos)-len(ac.X) : len(pos) : len(pos)]
		for _, a := range ac.Y {
			p := r.Pos(a)
			pos = append(pos, p)
			rc.XY.Add(p)
		}
		rc.YPos = pos[len(pos)-len(ac.Y) : len(pos) : len(pos)]
		c.cons[ord] = rc
		c.order[ord] = ord
	}
	slices.SortStableFunc(c.order, func(i, j int) int { return cmp.Compare(constraints[i].N, constraints[j].N) })
	return c
}
