// Package plan implements algorithm QPlan (paper, Section 5.1): given an
// SPC query Q that is effectively bounded under an access schema A, it
// produces a query plan that, on any database D |= A, fetches a bounded
// subset D_Q via the indices of A such that Q(D) = Q(D_Q).
//
// The plan is the executable form of an I_E proof, organized the way the
// paper's Example 1 walkthrough is:
//
//   - candidate value sets V[c], one per Σ_Q class, seeded with the
//     query's constants (X_C);
//   - fetch steps — the kept firings of EBCheck's closure derivation —
//     each probing one access-constraint index once per distinct
//     combination of candidate X-values and adding the returned distinct
//     Y-values to the candidate sets (Actualization + Transitivity);
//   - one verified row table R_i per atom, holding the tuples of S_i
//     (restricted to the atom's parameters X^i_Q) whose values are all
//     candidates. R_i is collected for free from a fetch step on S_i when
//     that step's attributes cover X^i_Q; otherwise a dedicated retrieval
//     probes the indexedness witness of X^i_Q (the executable Combination
//     rule);
//   - a final in-memory join of the R_i on shared classes, with no
//     further data access, followed by the projection onto Z.
//
// On the paper's Q0/A0 example this yields exactly the 1000 + 5000 + 1000
// = 7000-tuple budget of Example 1.
package plan

import (
	"fmt"
	"strings"

	"bcq/internal/core"
	"bcq/internal/deduce"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/stats"
	"bcq/internal/value"
)

// FetchStep probes one access-constraint index once per distinct
// combination of candidate values of its X classes, extending the candidate
// sets of its bound Y classes.
type FetchStep struct {
	// Atom is the atom the constraint was actualized on.
	Atom int
	// AC is the access constraint whose index is probed.
	AC schema.AccessConstraint
	// XClasses aligns with AC.X: the class supplying each lookup attribute.
	XClasses []int
	// YClasses aligns with AC.Y: the class of each returned attribute.
	YClasses []int
	// YPos aligns with AC.Y: the position of each returned attribute in
	// the relation's schema. An index entry is its witness tuple, so this
	// is where the executor reads the entry's Y-value; it is the compiled
	// access schema's own list (shared, read-only), not rendered by
	// Explain.
	YPos []int
	// BindPos indexes into AC.Y: positions whose class gains candidate
	// values from this step. Other positions are ignored (their classes
	// are either already populated or not needed).
	BindPos []int
	// StepBound is the worst-case number of tuples this step fetches:
	// (∏ candidate bounds of X classes) · N.
	StepBound deduce.Bound
	// EstLookups and EstFetch are the cost model's expectations for this
	// step — estimated index probes and estimated tuples fetched, from
	// observed cardinality statistics (or declared bounds when no
	// statistics were supplied). Zero on plans QPlan emits without a cost
	// model.
	EstLookups, EstFetch float64

	// act is the analysis act the step fires.
	act int
}

// RowSource says where a verified row's class value comes from when
// collecting rows out of index entries.
type RowSource struct {
	// Class is the Σ_Q class this column carries.
	Class int
	// FromX ≥ 0 takes the value from this position of the lookup X-combo;
	// otherwise FromY ≥ 0 takes it from this position of the entry's Y
	// tuple.
	FromX, FromY int
}

// VerifyStep builds the verified row table R_i of one atom: the tuples of
// the atom's relation, restricted to its parameter classes, whose values
// are all candidates.
type VerifyStep struct {
	// Atom is the atom being verified.
	Atom int
	// Exists marks a parameterless atom: R_i degenerates to a
	// non-emptiness probe (one O(1) fetch).
	Exists bool
	// FromStep ≥ 0 collects R_i from the entries already fetched by
	// Steps[FromStep] (same atom, attributes covering X^i_Q): no further
	// data access. When -1, Witness is probed instead.
	FromStep int
	// Witness is the indexedness witness of X^i_Q (X ⊆ X^i_Q ⊆ X ∪ W);
	// meaningful when FromStep < 0.
	Witness schema.AccessConstraint
	// XClasses aligns with Witness.X (FromStep < 0 only).
	XClasses []int
	// YPos aligns with Witness.Y like FetchStep.YPos with AC.Y (FromStep
	// < 0 only).
	YPos []int
	// Row maps each distinct parameter class of the atom to its source in
	// the probed (or collected) entries. Duplicate attribute occurrences
	// of one class are checked for within-tuple equality via Consistency.
	Row []RowSource
	// Consistency lists extra (position, position) equality checks for
	// within-atom equalities: pairs of sources that must agree for the
	// entry to produce a row.
	Consistency []RowSource
	// StepBound is the worst-case number of tuples fetched (0 when
	// collecting from a previous step).
	StepBound deduce.Bound
	// EstLookups and EstFetch are the cost model's expectations for the
	// retrieval (both zero when collecting from a previous step, or when
	// the plan carries no cost model).
	EstLookups, EstFetch float64

	// act is the analysis act of Witness (FromStep < 0 only).
	act int
}

// Plan is a bounded query plan.
type Plan struct {
	// Query is the planned query; Closure its Σ_Q closure.
	Query   *spc.Query
	Closure *spc.Closure
	// Seeds pin the constant classes (the initial candidate sets).
	Seeds []Seed
	// Steps grow the candidate sets; Verifies build R_i, one per atom.
	Steps    []FetchStep
	Verifies []VerifyStep
	// OutputClasses aligns with Query.Output: the class projected into
	// each output column.
	OutputClasses []int
	// CandBound[c] bounds the number of candidate values of class c
	// (∞ for classes the plan never populates — non-parameters).
	CandBound []deduce.Bound
	// CombBound bounds the size of the final in-memory join input
	// (product of candidate bounds over all parameter classes).
	CombBound deduce.Bound
	// FetchBound bounds the total tuples fetched by the whole plan — the
	// M such that the evaluation accesses at most M tuples on every
	// database satisfying the access schema.
	FetchBound deduce.Bound
	// Trivial marks plans for unsatisfiable queries: the executor returns
	// the empty answer without touching the database.
	Trivial bool
	// CostBased marks plans produced by Optimize; EstFetch is then the
	// cost model's expected total tuples fetched (Σ step and verification
	// estimates — the quantity the ordering search minimized), as opposed
	// to the worst-case FetchBound.
	CostBased bool
	EstFetch  float64
	// Probed lists, on a cost-based plan, each access constraint the plan
	// probes — fetch steps and retrieval witnesses — once, sorted by key,
	// with the card the cost model priced it by: what a plan cache
	// compares with the store's current cards to tell when to re-plan.
	Probed []ProbedCard
	// Tier records which planning tier produced the plan. All tiers share
	// emit's soundness contract, so a tier only describes how hard the
	// ordering search worked — never what the plan may answer.
	Tier Tier
}

// Tier identifies the planner that produced a plan: QPlan, OptimizeGreedy
// or Optimize. The engine plans with Optimize.
type Tier string

const (
	// TierNaive is QPlan's derivation order: no cost model consulted.
	TierNaive Tier = "naive"
	// TierGreedy is OptimizeGreedy's: the better of the derivation order
	// and the greedy minimum-marginal-cost order, no exhaustive search.
	// Planning cost is linear-ish in the act count.
	TierGreedy Tier = "greedy"
	// TierOptimized is Optimize's: the full branch-and-bound search, or
	// the greedy order where the search's atom limit or node budget
	// stopped it.
	TierOptimized Tier = "optimized"
)

// ProbedCard is one constraint a plan probes and the cardinality card it
// was costed against.
type ProbedCard struct {
	// Key is the constraint's AccessConstraint.Key.
	Key string
	// Card is what the statistics held for it; OK is false when they held
	// nothing, and the declared bound was used.
	Card stats.ACCard
	OK   bool
}

// Seed pins a class to a constant value (one instantiated parameter of
// X_C).
type Seed struct {
	Class int
	Val   value.Value
}

// NotEffectivelyBoundedError reports that no bounded plan exists, carrying
// the EBCheck diagnosis.
type NotEffectivelyBoundedError struct {
	Result core.EBResult
}

func (e *NotEffectivelyBoundedError) Error() string {
	var parts []string
	if len(e.Result.MissingClasses) > 0 {
		parts = append(parts, fmt.Sprintf("parameters not deducible from the instantiated ones: %v", e.Result.MissingClasses))
	}
	if len(e.Result.UnindexedAtoms) > 0 {
		parts = append(parts, fmt.Sprintf("atoms with unindexed parameters: %v", e.Result.UnindexedAtoms))
	}
	if len(parts) == 0 {
		parts = append(parts, "query is not effectively bounded")
	}
	return "plan: " + strings.Join(parts, "; ")
}
