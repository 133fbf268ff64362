package core

import (
	"bcq/internal/deduce"
)

// BoundedResult is the outcome of the boundedness check (problem
// Bnd(Q, A), Section 4.1).
type BoundedResult struct {
	// Bounded is the answer to Bnd(Q, A).
	Bounded bool
	// Trivial is set when the query is unsatisfiable: Q(D) = ∅ for every D,
	// so the empty D_Q witnesses boundedness without any deduction.
	Trivial bool
	// Bound is an upper bound on the number of distinct value combinations
	// of the query's parameters, derived from the proof; meaningful only
	// when Bounded holds and Trivial does not.
	Bound deduce.Bound
	// MissingClasses lists the classes of X_B ∪ Z that the closure could
	// not cover (rendered names), when Bounded is false. They explain the
	// "no" answer: each needs either a constant or an access constraint.
	MissingClasses []string
	// closure is retained for callers that extend the analysis.
	closure *deduce.Result
}

// BCheck decides whether Q is bounded under A, implementing algorithm
// BCheck (Figure 3) and the characterization of Theorem 3: Q is bounded iff
// every class of X_B ∪ Z is in the access closure of X_B ∪ X_C under the
// actualized constraints. Runs in O(|Q|(|A| + |Q|)) time.
func (an *Analysis) BCheck() BoundedResult {
	if !an.Closure.Satisfiable() {
		return BoundedResult{Bounded: true, Trivial: true, Bound: deduce.NewBound(0)}
	}
	res := deduce.Close(an.Closure, an.Acts, an.seedUnion())
	target := an.target()
	if !res.Covers(target) {
		return BoundedResult{
			Bounded:        false,
			MissingClasses: an.describeClasses(res.Missing(target)),
			closure:        res,
		}
	}
	return BoundedResult{
		Bounded: true,
		Bound:   res.BoundOfSet(target),
		closure: res,
	}
}

// EBResult is the outcome of the effective-boundedness check (problem
// EBnd(Q, A), Section 4.2).
type EBResult struct {
	// EffectivelyBounded is the answer to EBnd(Q, A).
	EffectivelyBounded bool
	// Trivial marks unsatisfiable queries (empty answer, no data access
	// needed).
	Trivial bool
	// Bound is an upper bound, from the I_E derivation, on the number of
	// distinct parameter-value combinations that can satisfy the query;
	// the planner turns it into a fetch bound.
	Bound deduce.Bound
	// MissingClasses names parameter classes outside the closure of X_C
	// (condition (2) of Theorem 4 fails), when the check fails.
	MissingClasses []string
	// UnindexedAtoms lists atoms i whose parameter set X^i_Q is not indexed
	// in A (condition (1)/(b) fails), when the check fails. Each entry is
	// the atom alias.
	UnindexedAtoms []string
	// Derivation is the I_E derivation (closure from X_C); the planner
	// replays it. Present whenever the query is satisfiable.
	Derivation *deduce.Result
}

// EBCheck decides whether Q is effectively bounded under A, implementing
// algorithm EBCheck (Section 4.2) and the characterization of Theorem 4:
//
//	(step 1) compute the access closure X*_C of X_C (as in BCheck but
//	         seeded with X_C only);
//	(step 2) Q is effectively bounded iff ∪_i X^i_Q ⊆ X*_C and each
//	         X^i_Q is indexed in A.
//
// Runs in O(|Q|(|A| + |Q|)) time.
func (an *Analysis) EBCheck() EBResult {
	if !an.Closure.Satisfiable() {
		return EBResult{EffectivelyBounded: true, Trivial: true, Bound: deduce.NewBound(0)}
	}
	cl := an.Closure
	res := deduce.Close(cl, an.Acts, cl.XC())
	out := EBResult{Derivation: res}

	// ∪_i X^i_Q is the closure's parameter set: every parameter occurrence
	// belongs to exactly one atom.
	allParams := cl.Params()
	if !res.Covers(allParams) {
		out.MissingClasses = an.describeClasses(res.Missing(allParams))
	}
	for i, atom := range cl.Query().Atoms {
		if !an.Indexed(i) {
			out.UnindexedAtoms = append(out.UnindexedAtoms, atom.Alias)
		}
	}
	if len(out.MissingClasses) == 0 && len(out.UnindexedAtoms) == 0 {
		out.EffectivelyBounded = true
		out.Bound = res.BoundOfSet(allParams)
	}
	return out
}
