// Package spc models SPC (select–project–Cartesian-product, a.k.a.
// conjunctive) queries
//
//	Q(Z) = π_Z σ_C (S1 × ... × Sn)
//
// where each Si is a (renaming of a) relation schema and C is a conjunction
// of equality atoms x = y or x = c over attribute occurrences (paper,
// Section 2). The package also provides the equality closure Σ_Q, the
// derived parameter sets X_B, X_C and X^i_Q used by the boundedness
// characterizations, and the Lemma 1 query rewriting gQ.
package spc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bcq/internal/schema"
	"bcq/internal/value"
)

// AttrRef identifies one attribute occurrence S_i[A]: attribute Attr of the
// query's i-th atom.
type AttrRef struct {
	// Atom indexes into Query.Atoms.
	Atom int
	// Attr is an attribute name of the atom's relation schema.
	Attr string
}

// Atom is one occurrence S_i of a relation schema in the Cartesian product,
// under an alias (queries may use the same relation several times).
type Atom struct {
	// Rel names a relation schema in the catalog.
	Rel string
	// Alias is the name the query uses for this occurrence. Aliases are
	// unique within a query; an empty alias defaults to the relation name
	// during validation.
	Alias string
}

// EqAttr is an equality condition S[A] = S'[A'] between two attribute
// occurrences.
type EqAttr struct {
	L, R AttrRef
}

// EqConst is an equality condition S[A] = c pinning an attribute occurrence
// to a constant.
type EqConst struct {
	A AttrRef
	C value.Value
}

// OutputCol is one column of the projection list Z.
type OutputCol struct {
	Ref AttrRef
	// As is the output column name; defaults to the attribute name.
	As string
}

// Query is an SPC query. Construct with NewQuery or Parse and treat as
// immutable afterwards; the analysis packages cache derived structures
// keyed by pointer identity.
type Query struct {
	// Name labels the query in diagnostics and experiment output.
	Name string
	// Atoms is S1 × ... × Sn, n ≥ 1.
	Atoms []Atom
	// EqAttrs and EqConsts together form the selection condition C.
	EqAttrs  []EqAttr
	EqConsts []EqConst
	// Placeholders are parameter slots "S[A] = ?" of a parameterized query
	// template (paper, Example 1(2)): attributes a user will instantiate
	// with constants at execution time. A placeholder makes its attribute a
	// parameter of the query — it joins X^i_Q and the dominating-parameter
	// candidate pool — but contributes no condition until instantiated
	// (it is in neither X_B nor X_C), matching the paper's analysis of Q1:
	// the template itself is not bounded, yet instantiating a dominating
	// subset of its slots makes it effectively bounded.
	Placeholders []AttrRef
	// Output is the projection list Z. An empty Output makes the query
	// Boolean: its answer is the zero-column relation, nonempty iff
	// σ_C(S1 × ... × Sn) is nonempty.
	Output []OutputCol

	// res is what the last validation resolved (see resolution).
	res resolution
}

// resolution is what validating a query against a catalog finds, kept so
// that nothing after the validation looks a name up again: each atom's
// relation schema, and each reference's attribute position in reference
// order — EqAttrs (L, then R), EqConsts, Placeholders, Output. It
// describes the query as validated: NewClosure validates a query whose
// lists have grown or shrunk since again; one whose references were
// rewritten in place must be validated again by its author.
type resolution struct {
	cat  *schema.Catalog
	rels []*schema.Relation
	pos  []int
	// The list lengths the positions were taken for.
	nEqAttrs, nEqConsts, nSlots, nOut int
}

// resolvedFor reports whether the query's resolution describes it against
// cat.
func (q *Query) resolvedFor(cat *schema.Catalog) bool {
	r := &q.res
	return r.cat == cat && cat != nil && len(r.rels) == len(q.Atoms) &&
		r.nEqAttrs == len(q.EqAttrs) && r.nEqConsts == len(q.EqConsts) &&
		r.nSlots == len(q.Placeholders) && r.nOut == len(q.Output)
}

// NumSel returns #-sel, the number of equality atoms in the selection
// condition (the paper's query-complexity knob, Section 6).
func (q *Query) NumSel() int { return len(q.EqAttrs) + len(q.EqConsts) + len(q.Placeholders) }

// NumProd returns #-prod, the number of Cartesian products in the query
// (atoms minus one).
func (q *Query) NumProd() int { return len(q.Atoms) - 1 }

// IsBoolean reports whether the query has an empty projection list.
func (q *Query) IsBoolean() bool { return len(q.Output) == 0 }

// Size returns |Q|, measured as the total number of syntactic elements:
// atom attributes, condition atoms and output columns. It is the quantity
// the paper's complexity bounds are stated in.
func (q *Query) Size(cat *schema.Catalog) int {
	n := 0
	for _, at := range q.Atoms {
		if r, ok := cat.Relation(at.Rel); ok {
			n += r.Arity()
		}
	}
	return n + q.NumSel() + len(q.Output)
}

// Validate checks the query against a catalog: every atom names a known
// relation, aliases are unique (empty aliases are filled in with the
// relation name), every attribute reference resolves, and the query has at
// least one atom. It mutates only empty aliases and output names, and
// records what it resolved — each atom's relation and each reference's
// attribute position — for the analysis to read.
func (q *Query) Validate(cat *schema.Catalog) error {
	r, err := q.resolve(cat)
	if err != nil {
		return err
	}
	q.res = r
	return nil
}

// resolutionFor returns the query's resolution against cat: the one it
// records, or — for a query that records none — a fresh validation, not
// recorded, so that analyzing a shared query writes nothing to it.
func (q *Query) resolutionFor(cat *schema.Catalog) (resolution, error) {
	if q.resolvedFor(cat) {
		return q.res, nil
	}
	return q.resolve(cat)
}

// resolve is Validate without recording the resolution.
func (q *Query) resolve(cat *schema.Catalog) (resolution, error) {
	if len(q.Atoms) == 0 {
		return resolution{}, fmt.Errorf("spc: query %s has no atoms", q.Name)
	}
	rels := make([]*schema.Relation, len(q.Atoms))
	for i := range q.Atoms {
		at := &q.Atoms[i]
		rel, ok := cat.Relation(at.Rel)
		if !ok {
			return resolution{}, fmt.Errorf("spc: query %s: unknown relation %s", q.Name, at.Rel)
		}
		rels[i] = rel
		if at.Alias == "" {
			at.Alias = at.Rel
		}
		// Atoms are few: comparing each alias with the earlier ones beats
		// building a set.
		for _, prev := range q.Atoms[:i] {
			if prev.Alias == at.Alias {
				return resolution{}, fmt.Errorf("spc: query %s: duplicate alias %s", q.Name, at.Alias)
			}
		}
	}
	pos := make([]int, 0, 2*len(q.EqAttrs)+len(q.EqConsts)+len(q.Placeholders)+len(q.Output))
	resolve := func(ref AttrRef) error {
		if ref.Atom < 0 || ref.Atom >= len(q.Atoms) {
			return fmt.Errorf("spc: query %s: attribute reference to atom %d out of range", q.Name, ref.Atom)
		}
		rel := rels[ref.Atom]
		p := rel.Pos(ref.Attr)
		if p < 0 {
			return fmt.Errorf("spc: query %s: relation %s (alias %s) has no attribute %s",
				q.Name, rel.Name(), q.Atoms[ref.Atom].Alias, ref.Attr)
		}
		pos = append(pos, p)
		return nil
	}
	for _, e := range q.EqAttrs {
		if err := resolve(e.L); err != nil {
			return resolution{}, err
		}
		if err := resolve(e.R); err != nil {
			return resolution{}, err
		}
	}
	for _, e := range q.EqConsts {
		if err := resolve(e.A); err != nil {
			return resolution{}, err
		}
		if e.C.IsNull() {
			return resolution{}, fmt.Errorf("spc: query %s: equality with null constant is never satisfied", q.Name)
		}
	}
	for _, ref := range q.Placeholders {
		if err := resolve(ref); err != nil {
			return resolution{}, err
		}
	}
	for i := range q.Output {
		if err := resolve(q.Output[i].Ref); err != nil {
			return resolution{}, err
		}
		if q.Output[i].As == "" {
			q.Output[i].As = q.Output[i].Ref.Attr
		}
	}
	return resolution{cat: cat, rels: rels, pos: pos,
		nEqAttrs: len(q.EqAttrs), nEqConsts: len(q.EqConsts), nSlots: len(q.Placeholders), nOut: len(q.Output)}, nil
}

// AtomIndexByAlias resolves an alias to an atom index, or -1.
func (q *Query) AtomIndexByAlias(alias string) int {
	for i, at := range q.Atoms {
		if at.Alias == alias {
			return i
		}
	}
	return -1
}

// RefString renders an attribute occurrence as "alias.attr".
func (q *Query) RefString(ref AttrRef) string {
	if ref.Atom >= 0 && ref.Atom < len(q.Atoms) {
		return q.Atoms[ref.Atom].Alias + "." + ref.Attr
	}
	return fmt.Sprintf("atom%d.%s", ref.Atom, ref.Attr)
}

// String renders the query in the parseable SQL-ish surface syntax.
func (q *Query) String() string {
	var b strings.Builder
	// One reference renders in about 16 bytes, a condition in two of them.
	b.Grow(32 + 16*(len(q.Output)+len(q.Atoms)) + 40*q.NumSel())
	writeRef := func(ref AttrRef) {
		if ref.Atom >= 0 && ref.Atom < len(q.Atoms) {
			b.WriteString(q.Atoms[ref.Atom].Alias)
			b.WriteByte('.')
			b.WriteString(ref.Attr)
			return
		}
		b.WriteString(q.RefString(ref))
	}
	b.WriteString("select ")
	if q.IsBoolean() {
		b.WriteString("exists")
	}
	for i, col := range q.Output {
		if i > 0 {
			b.WriteString(", ")
		}
		writeRef(col.Ref)
		if col.As != "" && col.As != col.Ref.Attr {
			b.WriteString(" as ")
			b.WriteString(col.As)
		}
	}
	b.WriteString(" from ")
	for i, at := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(at.Rel)
		if at.Alias != "" && at.Alias != at.Rel {
			b.WriteString(" as ")
			b.WriteString(at.Alias)
		}
	}
	wrote := false
	startCond := func(ref AttrRef) {
		if !wrote {
			b.WriteString(" where ")
			wrote = true
		} else {
			b.WriteString(" and ")
		}
		writeRef(ref)
		b.WriteString(" = ")
	}
	for _, e := range q.EqAttrs {
		startCond(e.L)
		writeRef(e.R)
	}
	var num [20]byte
	for _, e := range q.EqConsts {
		startCond(e.A)
		if e.C.Kind() == value.KindInt {
			b.Write(strconv.AppendInt(num[:0], e.C.AsInt(), 10))
		} else {
			b.WriteString(e.C.String())
		}
	}
	for _, ref := range q.Placeholders {
		startCond(ref)
		b.WriteByte('?')
	}
	return b.String()
}

// Clone returns a deep copy of the query that can be mutated independently.
// The copy shares the original's resolution, which describes it equally.
func (q *Query) Clone() *Query {
	out := &Query{
		Name:     q.Name,
		Atoms:    append([]Atom(nil), q.Atoms...),
		EqAttrs:  append([]EqAttr(nil), q.EqAttrs...),
		EqConsts: append([]EqConst(nil), q.EqConsts...),
		Output:   append([]OutputCol(nil), q.Output...),

		Placeholders: append([]AttrRef(nil), q.Placeholders...),
		res:          q.res,
	}
	return out
}

// Instantiate returns a copy of the query with each given attribute
// occurrence pinned to a constant (adding x = c conditions). It implements
// the paper's Q(X_P = ā) notation for parameterized queries. The copy of a
// validated query is resolved too when every binding names an attribute of
// its atom; otherwise it is validated where it is analyzed.
func (q *Query) Instantiate(bindings map[AttrRef]value.Value) *Query {
	out := q.Clone()
	if len(bindings) > 0 {
		out.Name = q.Name + "#inst"
	}
	refs := make([]AttrRef, 0, len(bindings))
	for ref := range bindings {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Atom != refs[j].Atom {
			return refs[i].Atom < refs[j].Atom
		}
		return refs[i].Attr < refs[j].Attr
	})
	for _, ref := range refs {
		out.EqConsts = append(out.EqConsts, EqConst{A: ref, C: bindings[ref]})
	}
	// A bound placeholder is no longer a slot.
	var remaining []AttrRef
	for _, ref := range out.Placeholders {
		if _, bound := bindings[ref]; !bound {
			remaining = append(remaining, ref)
		}
	}
	out.Placeholders = remaining
	out.res = q.res.instantiated(q, out, refs, bindings)
	return out
}

// instantiated is the resolution of out, which is q with the references
// refs bound (Instantiate): q's positions, with those of the new
// conditions added and those of the bound slots dropped. It is empty —
// leaving out to be validated — when q is unresolved, or when a binding
// names no attribute of its atom or binds null.
func (r resolution) instantiated(q, out *Query, refs []AttrRef, bindings map[AttrRef]value.Value) resolution {
	if !q.resolvedFor(r.cat) {
		return resolution{}
	}
	conds := 2*r.nEqAttrs + r.nEqConsts
	pos := make([]int, 0, len(r.pos)+len(refs))
	pos = append(pos, r.pos[:conds]...)
	for _, ref := range refs {
		if ref.Atom < 0 || ref.Atom >= len(r.rels) || bindings[ref].IsNull() {
			return resolution{}
		}
		p := r.rels[ref.Atom].Pos(ref.Attr)
		if p < 0 {
			return resolution{}
		}
		pos = append(pos, p)
	}
	for k, ref := range q.Placeholders {
		if _, bound := bindings[ref]; !bound {
			pos = append(pos, r.pos[conds+k])
		}
	}
	pos = append(pos, r.pos[conds+r.nSlots:]...)
	return resolution{cat: r.cat, rels: r.rels, pos: pos,
		nEqAttrs: r.nEqAttrs, nEqConsts: len(out.EqConsts), nSlots: len(out.Placeholders), nOut: r.nOut}
}
