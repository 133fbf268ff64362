package spc

import (
	"fmt"
	"sort"

	"bcq/internal/schema"
	"bcq/internal/value"
)

// Closure is the equality closure Σ_Q of a query: the set of all equality
// atoms derivable from the selection condition C by transitivity (paper,
// Section 3.1). It is represented as a partition of *all* attribute
// occurrences of the query — every attribute of every atom's relation, not
// just the ones mentioned in C or Z, because deduction with access
// constraints may pass through unmentioned attributes — into equivalence
// classes, with at most one constant per class.
//
// All boundedness machinery works over the class ids this type assigns:
// Σ_Q ⊢ x = y is an O(1) class comparison, Σ_Q ⊢ x = c is an O(1) constant
// lookup, and the derived sets X_B, X_C, Z and X^i_Q are ClassSets.
type Closure struct {
	q   *Query
	cat *schema.Catalog

	// Attribute occurrences are numbered by position: occurrence
	// (atom i, attribute at position p of its relation) is base[i] + p, so
	// resolving a reference is one lookup in the relation's own attribute
	// map and no table is built per closure.
	rels    []*schema.Relation // atom -> its relation schema
	base    []int              // atom -> index of its first occurrence; base[len] = total
	refs    []AttrRef          // all attribute occurrences, in (atom, attr-position) order
	classOf []int              // ref index -> class id (dense, 0-based)
	members [][]AttrRef        // class id -> occurrences (in ref order)

	consts      []value.Value // class id -> pinned constant (Null if none)
	hasConst    []bool        // class id -> whether consts is meaningful
	satisfiable bool          // false iff two distinct constants were equated

	params     ClassSet   // classes of attributes appearing in C or Z
	paramRefs  []AttrRef  // attribute occurrences appearing in C or Z (deduplicated, ordered)
	xB, xC     ClassSet   // the paper's X_B and X_C, as class sets
	out        ClassSet   // classes of Z
	atomParams []ClassSet // X^i_Q per atom, as class sets
	atomAttrs  [][]string // X^i_Q per atom, as sorted attribute-name lists
}

// NewClosure validates q against the catalog and computes Σ_Q and every
// derived set. The computation is O(|Q| α(|Q|)) — a union–find pass over the
// condition followed by linear scans — matching the paper's
// "precomputed in O(|Q|²)" budget with room to spare. Every table is a
// slice indexed by occurrence or class number and sized before it is
// filled, so a closure costs a fixed handful of allocations whatever the
// query's size.
func NewClosure(q *Query, cat *schema.Catalog) (*Closure, error) {
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	c := &Closure{q: q, cat: cat, satisfiable: true}

	// Enumerate every attribute occurrence of every atom.
	c.rels = make([]*schema.Relation, len(q.Atoms))
	c.base = make([]int, len(q.Atoms)+1)
	for i, at := range q.Atoms {
		c.rels[i], _ = cat.Relation(at.Rel)
		c.base[i+1] = c.base[i] + c.rels[i].Arity()
	}
	n := c.base[len(q.Atoms)]
	c.refs = make([]AttrRef, 0, n)
	for i, rel := range c.rels {
		for _, a := range rel.Attrs() {
			c.refs = append(c.refs, AttrRef{Atom: i, Attr: a})
		}
	}

	// Union–find over occurrences; ints carries its three tables.
	ints := make([]int, 3*n)
	parent, classID := ints[:n], ints[n:2*n] // classID: root -> class id + 1
	c.classOf = ints[2*n:]
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range q.EqAttrs {
		if ra, rb := find(c.refIndex(e.L)), find(c.refIndex(e.R)); ra != rb {
			parent[ra] = rb
		}
	}

	// Assign dense class ids in first-occurrence order (deterministic).
	numClasses := 0
	for i := range c.refs {
		root := find(i)
		if classID[root] == 0 {
			numClasses++
			classID[root] = numClasses
		}
		c.classOf[i] = classID[root] - 1
	}
	// Members per class, in ref order, as windows of one array: count,
	// cut, fill.
	size := parent // the forest is no longer needed; reuse it for the counts
	for i := range size {
		size[i] = 0
	}
	for _, id := range c.classOf {
		size[id]++
	}
	c.members = make([][]AttrRef, numClasses)
	backing := make([]AttrRef, n)
	off := 0
	for id := range c.members {
		c.members[id] = backing[off : off : off+size[id]]
		off += size[id]
	}
	for i, id := range c.classOf {
		c.members[id] = append(c.members[id], c.refs[i])
	}

	// Pin constants; detect unsatisfiability (S[A] = c and S[A] = d, c ≠ d).
	c.consts = make([]value.Value, numClasses)
	c.hasConst = make([]bool, numClasses)
	for _, e := range q.EqConsts {
		id := c.classOf[c.refIndex(e.A)]
		if c.hasConst[id] && c.consts[id] != e.C {
			c.satisfiable = false
			continue
		}
		c.consts[id] = e.C
		c.hasConst[id] = true
	}

	c.computeDerivedSets()
	return c, nil
}

// refIndex is the occurrence number of a reference the query's validation
// has already resolved; -1 for one it would have rejected.
func (c *Closure) refIndex(ref AttrRef) int {
	if ref.Atom < 0 || ref.Atom >= len(c.rels) {
		return -1
	}
	p := c.rels[ref.Atom].Pos(ref.Attr)
	if p < 0 {
		return -1
	}
	return c.base[ref.Atom] + p
}

// computeDerivedSets fills params, X_B, X_C, Z-classes and X^i_Q.
func (c *Closure) computeDerivedSets() {
	n := len(c.members)
	q := c.q
	// One array backs every class set of the closure.
	sets := NewClassSets(5+len(q.Atoms), n)
	c.params, c.xB, c.xC, c.out = sets[0], sets[1], sets[2], sets[3]
	inCond := sets[4]
	c.atomParams = sets[5:]

	// noted marks the occurrences that are parameters; paramRefs lists them
	// in first-mention order.
	noted := make([]bool, len(c.refs))
	c.paramRefs = make([]AttrRef, 0, 2*len(q.EqAttrs)+len(q.EqConsts)+len(q.Placeholders)+len(q.Output))
	note := func(ref AttrRef) int {
		ri := c.refIndex(ref)
		id := c.classOf[ri]
		c.params.Add(id)
		c.atomParams[ref.Atom].Add(id)
		if !noted[ri] {
			noted[ri] = true
			c.paramRefs = append(c.paramRefs, ref)
		}
		return id
	}

	for _, e := range q.EqAttrs {
		inCond.Add(note(e.L))
		note(e.R)
	}
	for _, e := range q.EqConsts {
		inCond.Add(note(e.A))
	}
	// Placeholders are parameters (they join X^i_Q and the
	// dominating-parameter pool) but impose no condition yet: they enter
	// neither X_B nor X_C until instantiated.
	for _, ref := range q.Placeholders {
		note(ref)
	}
	for _, col := range q.Output {
		c.out.Add(note(col.Ref))
	}

	// X_C: classes pinned to a constant (paper: Σ_Q ⊢ S[A] = c).
	for id := 0; id < n; id++ {
		if c.hasConst[id] {
			c.xC.Add(id)
		}
	}
	// X_B: classes that appear in the condition but are not output classes
	// (paper: attributes in σ_C with Σ_Q ⊬ S[A] = z for every z ∈ Z).
	for id := 0; id < n; id++ {
		if inCond.Has(id) && !c.out.Has(id) {
			c.xB.Add(id)
		}
	}

	// X^i_Q as sorted attribute names (the indexedness test works on
	// relation attribute names, not classes): windows of one array.
	c.atomAttrs = make([][]string, len(q.Atoms))
	names := make([]string, 0, len(c.paramRefs))
	for i := range q.Atoms {
		from := len(names)
		for ri := c.base[i]; ri < c.base[i+1]; ri++ {
			if noted[ri] {
				names = append(names, c.refs[ri].Attr)
			}
		}
		attrs := names[from:len(names):len(names)]
		sort.Strings(attrs)
		c.atomAttrs[i] = attrs
	}
}

// Query returns the underlying query.
func (c *Closure) Query() *Query { return c.q }

// Catalog returns the catalog the query was validated against.
func (c *Closure) Catalog() *schema.Catalog { return c.cat }

// Satisfiable reports whether Σ_Q is free of contradictions (no class is
// pinned to two distinct constants). Unsatisfiable queries return the empty
// answer on every database and are trivially bounded; the checking
// algorithms treat them specially.
func (c *Closure) Satisfiable() bool { return c.satisfiable }

// NumClasses returns the number of equivalence classes.
func (c *Closure) NumClasses() int { return len(c.members) }

// NumRefs returns the number of attribute occurrences.
func (c *Closure) NumRefs() int { return len(c.refs) }

// Class returns the class id of an attribute occurrence, or -1 when the
// occurrence does not exist (unknown atom or attribute).
func (c *Closure) Class(ref AttrRef) int {
	i := c.refIndex(ref)
	if i < 0 {
		return -1
	}
	return c.classOf[i]
}

// MustClass is Class but panics on unknown occurrences; for internal use
// where validation has already happened.
func (c *Closure) MustClass(ref AttrRef) int {
	id := c.Class(ref)
	if id < 0 {
		panic(fmt.Sprintf("spc: unknown attribute occurrence %v", ref))
	}
	return id
}

// Equal reports Σ_Q ⊢ a = b.
func (c *Closure) Equal(a, b AttrRef) bool {
	ia, ib := c.refIndex(a), c.refIndex(b)
	return ia >= 0 && ib >= 0 && c.classOf[ia] == c.classOf[ib]
}

// ConstOf returns the constant pinned to the class, if any
// (Σ_Q ⊢ x = c for members x of the class).
func (c *Closure) ConstOf(class int) (value.Value, bool) {
	if class < 0 || class >= len(c.members) {
		return value.Null, false
	}
	return c.consts[class], c.hasConst[class]
}

// Members returns the attribute occurrences in a class, in enumeration
// order. Callers must not mutate the returned slice.
func (c *Closure) Members(class int) []AttrRef { return c.members[class] }

// MembersOfAtom returns the attribute names of atom i that belong to the
// class.
func (c *Closure) MembersOfAtom(class, atom int) []string {
	var out []string
	for _, ref := range c.members[class] {
		if ref.Atom == atom {
			out = append(out, ref.Attr)
		}
	}
	return out
}

// Params returns the classes of the query's parameters (attributes in C or
// Z).
func (c *Closure) Params() ClassSet { return c.params }

// ParamRefs returns the parameter occurrences in deterministic order.
// Callers must not mutate the returned slice.
func (c *Closure) ParamRefs() []AttrRef { return c.paramRefs }

// XB returns the paper's X_B: classes of condition attributes not equal to
// any output attribute.
func (c *Closure) XB() ClassSet { return c.xB }

// XC returns the paper's X_C: classes pinned to constants.
func (c *Closure) XC() ClassSet { return c.xC }

// OutClasses returns the classes of the projection list Z.
func (c *Closure) OutClasses() ClassSet { return c.out }

// AtomParams returns X^i_Q as a class set: classes of atom i's parameters.
func (c *Closure) AtomParams(i int) ClassSet { return c.atomParams[i] }

// AtomParamAttrs returns X^i_Q as a sorted list of attribute names of atom
// i's relation — the form the indexedness test consumes.
func (c *Closure) AtomParamAttrs(i int) []string { return c.atomAttrs[i] }

// AtomInstantiated returns X^i_C: the attribute names of atom i whose class
// is pinned to a constant.
func (c *Closure) AtomInstantiated(i int) []string {
	var out []string
	for _, a := range c.atomAttrs[i] {
		if c.hasConst[c.MustClass(AttrRef{Atom: i, Attr: a})] {
			out = append(out, a)
		}
	}
	return out
}

// ClassName renders a class for diagnostics as its first member
// ("alias.attr"), with the constant appended when pinned.
func (c *Closure) ClassName(class int) string {
	if class < 0 || class >= len(c.members) || len(c.members[class]) == 0 {
		return fmt.Sprintf("class%d", class)
	}
	s := c.q.RefString(c.members[class][0])
	if c.hasConst[class] {
		s += "=" + c.consts[class].String()
	}
	return s
}

// ClassSetNames renders a class set for diagnostics.
func (c *Closure) ClassSetNames(s ClassSet) []string {
	ids := s.Members()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.ClassName(id)
	}
	return out
}
