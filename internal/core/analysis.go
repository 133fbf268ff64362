// Package core implements the paper's decision algorithms: BCheck
// (boundedness, Theorem 5), EBCheck (effective boundedness, Theorem 6),
// findDPh (dominating parameters, Section 4.3), and exact exponential
// solvers for the NP-hard variants (minimum dominating parameters,
// Theorem 7; M-boundedness, Theorem 8) usable on small inputs.
package core

import (
	"fmt"

	"bcq/internal/deduce"
	"bcq/internal/schema"
	"bcq/internal/spc"
)

// Analysis bundles a validated query, its Σ_Q closure, the access schema
// and the actualized constraints, so the four algorithms and the planner
// can share the O(|Q||A|) preprocessing. It also holds, derived once from
// attribute positions, the per-atom facts every consumer asks about: which
// acts witness the atom's indexedness, and which acts' attributes cover
// its parameters.
type Analysis struct {
	Closure *spc.Closure
	Access  *schema.AccessSchema
	// Compiled is Access resolved against the query's catalog: every act's
	// constraint, by ordinal, as attribute positions and sets.
	Compiled *schema.Compiled
	Acts     []deduce.Actualized

	// covers[ai] reports that act ai's X ∪ Y spans its atom's parameters.
	covers []bool
	// witnesses[i] are the acts on atom i whose constraint witnesses the
	// indexedness of X^i_Q, in declaration order; empty for an atom
	// without parameters, which needs no witness.
	witnesses [][]int
}

// NewAnalysis validates the access schema and the query against the
// catalog — the schema's verdict is the one its compiled form keeps, and a
// query Parse validated is not validated again — and precomputes Σ_Q, the
// actualized constraint set Γ and the per-atom tables.
func NewAnalysis(cat *schema.Catalog, q *spc.Query, a *schema.AccessSchema) (*Analysis, error) {
	comp, err := a.Compile(cat)
	if err != nil {
		return nil, err
	}
	cl, err := spc.NewClosure(q, cat)
	if err != nil {
		return nil, err
	}
	return newAnalysis(cl, a, comp), nil
}

// Analyze is NewAnalysis for a query whose closure is already built (an
// instantiated template, spc.Closure.Instantiate).
func Analyze(cl *spc.Closure, a *schema.AccessSchema) (*Analysis, error) {
	comp, err := a.Compile(cl.Catalog())
	if err != nil {
		return nil, err
	}
	return newAnalysis(cl, a, comp), nil
}

func newAnalysis(cl *spc.Closure, a *schema.AccessSchema, comp *schema.Compiled) *Analysis {
	acts := deduce.Actualize(cl, comp)
	atoms := len(cl.Query().Atoms)
	an := &Analysis{
		Closure:   cl,
		Access:    a,
		Compiled:  comp,
		Acts:      acts,
		covers:    make([]bool, len(acts)),
		witnesses: make([][]int, atoms),
	}
	// An atom's witnesses are among the acts on it: every constraint of its
	// relation was actualized there. Acts come sorted by N; a witness list
	// is kept in declaration order, which breaks the planner's cost ties.
	wit := make([]int, 0, len(acts))
	for i := 0; i < atoms; i++ {
		p := cl.AtomParamSet(i)
		from := len(wit)
		for ai := range acts {
			act := &acts[ai]
			if act.Atom != i {
				continue
			}
			rc := comp.Constraint(act.Ord)
			an.covers[ai] = rc.Covers(p)
			if p.IsEmpty() || !rc.Witnesses(p) {
				continue
			}
			k := len(wit)
			wit = append(wit, ai)
			for ; k > from && acts[wit[k-1]].Ord > act.Ord; k-- {
				wit[k], wit[k-1] = wit[k-1], wit[k]
			}
		}
		an.witnesses[i] = wit[from:len(wit):len(wit)]
	}
	return an
}

// Covers reports whether act ai's attributes X ∪ Y span all of its atom's
// parameter attributes: once it has fired, the atom's rows are collected
// from its entries.
func (an *Analysis) Covers(ai int) bool { return an.covers[ai] }

// Witnesses returns the acts on atom i whose constraint is an indexedness
// witness of X^i_Q (X ⊆ X^i_Q ⊆ X ∪ Y), in declaration order. Callers
// must not mutate the returned slice.
func (an *Analysis) Witnesses(i int) []int { return an.witnesses[i] }

// Indexed reports whether X^i_Q is indexed in A (paper, Section 3.2): it
// is empty — the atom only needs a non-emptiness probe (DESIGN.md,
// substitution 4) — or some constraint witnesses it.
func (an *Analysis) Indexed(i int) bool {
	return len(an.witnesses[i]) > 0 || an.Closure.AtomParamSet(i).IsEmpty()
}

// IndexedWitness returns atom i's witness act of smallest declared bound
// N, the first declared among equals — the cheapest verification by the
// declared bounds. ok is false when the atom has no witness.
func (an *Analysis) IndexedWitness(i int) (ai int, ok bool) {
	for _, w := range an.witnesses[i] {
		if !ok || an.Acts[w].N < an.Acts[ai].N {
			ai, ok = w, true
		}
	}
	return ai, ok
}

// Query returns the analyzed query.
func (an *Analysis) Query() *spc.Query { return an.Closure.Query() }

// Catalog returns the catalog the query was validated against.
func (an *Analysis) Catalog() *schema.Catalog { return an.Closure.Catalog() }

// describeClasses renders a class-id list for diagnostics.
func (an *Analysis) describeClasses(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = an.Closure.ClassName(id)
	}
	return out
}

// seedUnion returns X_B ∪ X_C as a fresh set (the seed of BCheck's closure,
// Figure 3 line 2).
func (an *Analysis) seedUnion() spc.ClassSet {
	s := an.Closure.XB().Clone()
	s.AddAll(an.Closure.XC())
	return s
}

// target returns X_B ∪ Z, the set Theorem 3 requires the closure to cover.
func (an *Analysis) target() spc.ClassSet {
	s := an.Closure.XB().Clone()
	s.AddAll(an.Closure.OutClasses())
	return s
}

// String summarizes the analysis inputs.
func (an *Analysis) String() string {
	return fmt.Sprintf("query %s: |Q|=%d, ‖A‖=%d, %d classes",
		an.Query().Name, an.Query().Size(an.Catalog()), an.Access.Size(), an.Closure.NumClasses())
}
