package spc

import (
	"fmt"

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
	// (atom i, attribute at position p of its relation) is base[i] + p.
	// The query's validation resolved every reference to its position, so
	// building the closure looks no name up.
	rels    []*schema.Relation // atom -> its relation schema
	base    []int              // atom -> index of its first occurrence; base[len] = total
	classOf []int              // occurrence -> class id (dense, 0-based)
	first   []int              // class id -> its first occurrence

	consts      []value.Value // class id -> pinned constant (Null if none)
	satisfiable bool          // false iff two distinct constants were equated

	refClass   []int      // class of every reference, in resolution order
	params     ClassSet   // classes of attributes appearing in C or Z
	paramOcc   []int      // occurrences appearing in C or Z, in first-mention order
	xB, xC     ClassSet   // the paper's X_B and X_C, as class sets
	out        ClassSet   // classes of Z
	atomParams []ClassSet // X^i_Q per atom, as class sets
	// atomPos is X^i_Q per atom as attribute positions of its relation:
	// the form the indexedness and coverage tests read.
	atomPos []schema.AttrSet
}

// NewClosure computes Σ_Q and every derived set of a query. A query Parse
// or Validate resolved against the catalog is not validated again; any
// other is validated here, once, without recording the resolution on it.
// The computation is O(|Q| α(|Q|)) — a
// union–find pass over the condition followed by linear scans — matching
// the paper's "precomputed in O(|Q|²)" budget with room to spare. Every
// table is a slice indexed by occurrence or class number and sized before
// it is filled, so a closure costs a fixed handful of allocations whatever
// the query's size.
func NewClosure(q *Query, cat *schema.Catalog) (*Closure, error) {
	res, err := q.resolutionFor(cat)
	if err != nil {
		return nil, err
	}
	c := &Closure{q: q, cat: cat, rels: res.rels}
	c.derive(&res, c.partition(res.pos, deriveInts(&res)))
	return c, nil
}

// Instantiate is the closure of c's query with the given occurrences
// pinned to constants (Query.Instantiate). Pinning adds x = c conditions
// and no equality, so the partition — and with it every class id — is
// c's own and is shared; only the constants and the derived sets are
// computed anew. A binding Query.Validate would reject fails the same way.
func (c *Closure) Instantiate(bindings map[AttrRef]value.Value) (*Closure, error) {
	iq := c.q.Instantiate(bindings)
	res, err := iq.resolutionFor(c.cat)
	if err != nil {
		return nil, err
	}
	out := &Closure{q: iq, cat: c.cat, rels: c.rels, base: c.base, classOf: c.classOf, first: c.first}
	out.derive(&res, make([]int, deriveInts(&res)))
	return out, nil
}

// partition numbers the occurrences and unions them along the query's
// equalities, assigning dense class ids in first-occurrence order
// (deterministic); pos are the resolved reference positions. It returns
// extra further ints, cut from the array its own tables are.
func (c *Closure) partition(pos []int, extra int) []int {
	q := c.q
	atoms := len(c.rels)
	n := 0
	for _, rel := range c.rels {
		n += rel.Arity()
	}
	// One array: the bases, the classes, and the union–find forest with
	// its root -> class id + 1 table, the forest becoming the first
	// occurrences.
	ints := make([]int, atoms+1+3*n+extra)
	c.base, ints = ints[:atoms+1], ints[atoms+1:]
	c.classOf, ints = ints[:n], ints[n:]
	parent, classID, rest := ints[:n], ints[n:2*n], ints[2*n:]
	for i, rel := range c.rels {
		c.base[i+1] = c.base[i] + rel.Arity()
	}
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
	for k, e := range q.EqAttrs {
		l, r := c.base[e.L.Atom]+pos[2*k], c.base[e.R.Atom]+pos[2*k+1]
		if ra, rb := find(l), find(r); ra != rb {
			parent[ra] = rb
		}
	}
	numClasses := 0
	for i := range c.classOf {
		root := find(i)
		if classID[root] == 0 {
			numClasses++
			classID[root] = numClasses
		}
		c.classOf[i] = classID[root] - 1
	}
	// The forest is no longer needed: it holds the first occurrences.
	c.first = parent[:numClasses]
	numClasses = 0
	for i, id := range c.classOf {
		if id == numClasses {
			c.first[id] = i
			numClasses++
		}
	}
	return rest
}

// deriveInts is the number of ints derive needs for a closure over a
// query of this resolution: a class and a parameter slot per reference, a
// mark per occurrence.
func deriveInts(res *resolution) int {
	n := 0
	for _, rel := range res.rels {
		n += rel.Arity()
	}
	return 2*len(res.pos) + n
}

// derive pins the constants — detecting unsatisfiability (S[A] = c and
// S[A] = d, c ≠ d) — and fills the parameter sets, X_B, X_C, the output
// classes and X^i_Q, all from the query's resolution res. ints is zeroed
// scratch of deriveInts(res) ints.
func (c *Closure) derive(res *resolution, ints []int) {
	q := c.q
	n := len(c.first)
	atoms := len(c.rels)
	c.satisfiable = true
	c.consts = make([]value.Value, n)

	// One array backs every class set and every atom's position set.
	classWords := (n + 63) / 64
	words := (5 + atoms) * classWords
	for _, rel := range c.rels {
		words += schema.AttrWords(rel.Arity())
	}
	slab := make([]uint64, words)
	sets := make([]ClassSet, 5+atoms)
	for i := range sets {
		sets[i].words, slab = slab[:classWords:classWords], slab[classWords:]
	}
	c.params, c.xB, c.xC, c.out = sets[0], sets[1], sets[2], sets[3]
	inCond := sets[4]
	c.atomParams = sets[5:]
	c.atomPos = make([]schema.AttrSet, atoms)
	for i, rel := range c.rels {
		w := schema.AttrWords(rel.Arity())
		c.atomPos[i], slab = schema.AttrSet(slab[:w:w]), slab[w:]
	}

	// refClass holds each reference's class; paramOcc lists the parameter
	// occurrences in first-mention order, and noted marks them.
	c.refClass, ints = ints[:len(res.pos)], ints[len(res.pos):]
	c.paramOcc, ints = ints[:0:len(res.pos)], ints[len(res.pos):]
	noted := ints
	k := 0
	note := func(atom int) int {
		p := res.pos[k]
		occ := c.base[atom] + p
		id := c.classOf[occ]
		c.refClass[k] = id
		k++
		c.params.Add(id)
		c.atomParams[atom].Add(id)
		c.atomPos[atom].Add(p)
		if noted[occ] == 0 {
			noted[occ] = 1
			c.paramOcc = append(c.paramOcc, occ)
		}
		return id
	}

	for _, e := range q.EqAttrs {
		inCond.Add(note(e.L.Atom))
		note(e.R.Atom)
	}
	for _, e := range q.EqConsts {
		id := note(e.A.Atom)
		inCond.Add(id)
		if c.xC.Has(id) && c.consts[id] != e.C {
			c.satisfiable = false
			continue
		}
		c.consts[id] = e.C
		// X_C: classes pinned to a constant (paper: Σ_Q ⊢ S[A] = c).
		c.xC.Add(id)
	}
	// Placeholders are parameters (they join X^i_Q and the
	// dominating-parameter pool) but impose no condition yet: they enter
	// neither X_B nor X_C until instantiated.
	for _, ref := range q.Placeholders {
		note(ref.Atom)
	}
	for _, col := range q.Output {
		c.out.Add(note(col.Ref.Atom))
	}

	// X_B: classes that appear in the condition but are not output classes
	// (paper: attributes in σ_C with Σ_Q ⊬ S[A] = z for every z ∈ Z).
	for id := 0; id < n; id++ {
		if inCond.Has(id) && !c.out.Has(id) {
			c.xB.Add(id)
		}
	}
}

// occAt splits an occurrence into its atom and attribute position.
func (c *Closure) occAt(occ int) (atom, pos int) {
	for occ >= c.base[atom+1] {
		atom++
	}
	return atom, occ - c.base[atom]
}

// occRef names an occurrence as an attribute reference.
func (c *Closure) occRef(occ int) AttrRef {
	atom, pos := c.occAt(occ)
	return AttrRef{Atom: atom, Attr: c.rels[atom].Attrs()[pos]}
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
func (c *Closure) NumClasses() int { return len(c.first) }

// NumRefs returns the number of attribute occurrences.
func (c *Closure) NumRefs() int { return len(c.classOf) }

// Class returns the class id of an attribute occurrence, or -1 when the
// occurrence does not exist (unknown atom or attribute).
func (c *Closure) Class(ref AttrRef) int {
	if ref.Atom < 0 || ref.Atom >= len(c.rels) {
		return -1
	}
	p := c.rels[ref.Atom].Pos(ref.Attr)
	if p < 0 {
		return -1
	}
	return c.classOf[c.base[ref.Atom]+p]
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

// ClassAt returns the class of the attribute at position pos of atom's
// relation.
func (c *Closure) ClassAt(atom, pos int) int { return c.classOf[c.base[atom]+pos] }

// Relation returns the relation schema of atom i.
func (c *Closure) Relation(i int) *schema.Relation { return c.rels[i] }

// Equal reports Σ_Q ⊢ a = b.
func (c *Closure) Equal(a, b AttrRef) bool {
	ia, ib := c.Class(a), c.Class(b)
	return ia >= 0 && ia == ib
}

// ConstOf returns the constant pinned to the class, if any
// (Σ_Q ⊢ x = c for members x of the class).
func (c *Closure) ConstOf(class int) (value.Value, bool) {
	if class < 0 || class >= len(c.consts) {
		return value.Null, false
	}
	return c.consts[class], c.xC.Has(class)
}

// Members returns the attribute occurrences in a class, in enumeration
// order.
func (c *Closure) Members(class int) []AttrRef {
	var out []AttrRef
	for occ, id := range c.classOf {
		if id == class {
			out = append(out, c.occRef(occ))
		}
	}
	return out
}

// MembersOfAtom returns the attribute names of atom i that belong to the
// class.
func (c *Closure) MembersOfAtom(class, atom int) []string {
	var out []string
	for p, a := range c.rels[atom].Attrs() {
		if c.classOf[c.base[atom]+p] == class {
			out = append(out, a)
		}
	}
	return out
}

// Params returns the classes of the query's parameters (attributes in C or
// Z).
func (c *Closure) Params() ClassSet { return c.params }

// NumParamRefs returns the number of distinct parameter occurrences.
func (c *Closure) NumParamRefs() int { return len(c.paramOcc) }

// ParamRefs returns the parameter occurrences in deterministic
// (first-mention) order.
func (c *Closure) ParamRefs() []AttrRef {
	out := make([]AttrRef, len(c.paramOcc))
	for k, occ := range c.paramOcc {
		out[k] = c.occRef(occ)
	}
	return out
}

// ParamClass returns the class of the k-th parameter occurrence of
// ParamRefs.
func (c *Closure) ParamClass(k int) int { return c.classOf[c.paramOcc[k]] }

// ParamAt returns the atom and attribute position of the k-th parameter
// occurrence of ParamRefs.
func (c *Closure) ParamAt(k int) (atom, pos int) { return c.occAt(c.paramOcc[k]) }

// XB returns the paper's X_B: classes of condition attributes not equal to
// any output attribute.
func (c *Closure) XB() ClassSet { return c.xB }

// XC returns the paper's X_C: classes pinned to constants.
func (c *Closure) XC() ClassSet { return c.xC }

// OutClasses returns the classes of the projection list Z.
func (c *Closure) OutClasses() ClassSet { return c.out }

// OutputClass returns the class of the query's k-th output column.
func (c *Closure) OutputClass(k int) int {
	return c.refClass[2*len(c.q.EqAttrs)+len(c.q.EqConsts)+len(c.q.Placeholders)+k]
}

// SlotClass returns the class of the query's k-th placeholder.
func (c *Closure) SlotClass(k int) int {
	return c.refClass[2*len(c.q.EqAttrs)+len(c.q.EqConsts)+k]
}

// AtomParams returns X^i_Q as a class set: classes of atom i's parameters.
func (c *Closure) AtomParams(i int) ClassSet { return c.atomParams[i] }

// AtomParamSet returns X^i_Q as the positions of atom i's parameter
// attributes in its relation — the form the indexedness test reads.
func (c *Closure) AtomParamSet(i int) schema.AttrSet { return c.atomPos[i] }

// ClassName renders a class for diagnostics as its first member
// ("alias.attr"), with the constant appended when pinned.
func (c *Closure) ClassName(class int) string {
	if class < 0 || class >= len(c.first) {
		return fmt.Sprintf("class%d", class)
	}
	s := c.q.RefString(c.occRef(c.first[class]))
	if c.xC.Has(class) {
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
