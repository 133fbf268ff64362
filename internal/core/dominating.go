package core

import (
	"fmt"
	"sort"

	"bcq/internal/deduce"
	"bcq/internal/spc"
)

// DPResult is the outcome of the dominating-parameter search (problems
// DP(Q, A) and MDP(Q, A), Section 4.3). A set X_P of parameters dominates Q
// under A w.r.t. α when |X_P| / |candidates| ≤ α and instantiating X_P with
// any constants makes Q effectively bounded under A.
type DPResult struct {
	// Exists reports whether a dominating set was found.
	Exists bool
	// Params are the chosen parameter occurrences, in deterministic order.
	// Instantiating exactly these makes the query effectively bounded.
	Params []spc.AttrRef
	// Classes are the Σ_Q classes of Params (each class listed once).
	Classes []int
	// Ratio is |X_P| / (number of uninstantiated parameters); compare
	// against α.
	Ratio float64
	// Reason explains a negative answer.
	Reason string
}

// FindDPh is the paper's heuristic algorithm findDPh (Section 4.3). Given
// α ∈ (0, 1], it either finds a set of dominating parameters for Q under A
// or reports that none exists (for this heuristic). The three steps follow
// the paper:
//
//	(1) initial candidates: every uninstantiated parameter covered by some
//	    access constraint of its atom's relation;
//	(2) feasibility: every X^i_Q must be indexed in A and covered by the
//	    candidates plus X_C — otherwise no instantiation can help;
//	(3) minimization: greedily drop candidates (class by class, together
//	    with all Σ_Q-equal parameters, the paper's ext_Q(A)) as long as
//	    the remaining set still makes Q effectively bounded.
//
// Each minimization probe re-runs the I_E closure with the tentative seed,
// which is exactly EBCheck on the instantiated query (indexedness does not
// depend on the instantiation); this is the paper-implicit guard discussed
// in DESIGN.md, substitution 5.
func (an *Analysis) FindDPh(alpha float64) DPResult {
	cl := an.Closure
	q := cl.Query()
	if !cl.Satisfiable() {
		return DPResult{Exists: false, Reason: "query is unsatisfiable; it needs no parameters"}
	}
	if eb := an.EBCheck(); eb.EffectivelyBounded {
		return DPResult{Exists: true, Ratio: 0}
	}

	// Step 2a: indexedness is a hard requirement no instantiation fixes
	// (Example 8 of the paper).
	for i, atom := range q.Atoms {
		if !an.Indexed(i) {
			return DPResult{Exists: false, Reason: fmt.Sprintf(
				"parameters of atom %s are not indexed in A; no instantiation makes Q effectively bounded", atom.Alias)}
		}
	}

	// Step 1: initial candidate classes: every constraint of an atom's
	// relation was actualized on the atom.
	candidates := spc.NewClassSet(cl.NumClasses())
	for k := 0; k < cl.NumParamRefs(); k++ {
		id := cl.ParamClass(k)
		if cl.XC().Has(id) {
			continue
		}
		atom, pos := cl.ParamAt(k)
		for ai := range an.Acts {
			if act := &an.Acts[ai]; act.Atom == atom && an.Compiled.Constraint(act.Ord).XY.Has(pos) {
				candidates.Add(id)
				break
			}
		}
	}

	// Step 2b: candidates ∪ X_C must cover every parameter class.
	allParams := spc.NewClassSet(cl.NumClasses())
	for i := range q.Atoms {
		allParams.AddAll(cl.AtomParams(i))
	}
	seed := candidates.Clone()
	seed.AddAll(cl.XC())
	if !seed.ContainsAll(allParams) {
		missing := spc.NewClassSet(cl.NumClasses())
		for _, c := range allParams.Members() {
			if !seed.Has(c) {
				missing.Add(c)
			}
		}
		return DPResult{Exists: false, Reason: fmt.Sprintf(
			"parameters %v are covered by no access constraint; no instantiation makes Q effectively bounded",
			cl.ClassSetNames(missing))}
	}

	// Check that instantiating every candidate works at all; if even the
	// full set fails the closure, give up.
	if !an.coveredWithSeed(seed, allParams) {
		return DPResult{Exists: false, Reason: "even instantiating all candidate parameters leaves the query unbounded"}
	}

	// Step 3: minimize. Try dropping classes in descending "weight" (number
	// of parameter occurrences), so the surviving set has few occurrences.
	xp := candidates.Clone()
	order := candidates.Members()
	sort.SliceStable(order, func(i, j int) bool {
		return an.classWeight(order[i]) > an.classWeight(order[j])
	})
	for _, c := range order {
		xp.Remove(c)
		tentative := xp.Clone()
		tentative.AddAll(cl.XC())
		if !an.coveredWithSeed(tentative, allParams) {
			xp.Add(c) // cannot drop: the closure loses coverage
		}
	}

	// Render the result: parameter occurrences of the surviving classes.
	var params []spc.AttrRef
	for k, ref := range cl.ParamRefs() {
		if xp.Has(cl.ParamClass(k)) {
			params = append(params, ref)
		}
	}
	denominator := an.uninstantiatedParams()
	ratio := 0.0
	if denominator > 0 {
		ratio = float64(len(params)) / float64(denominator)
	}
	if denominator > 0 && len(params) == denominator {
		return DPResult{Exists: false, Reason: "only the trivial set (all parameters) works", Ratio: ratio}
	}
	if ratio > alpha {
		return DPResult{
			Exists: false,
			Params: params,
			Ratio:  ratio,
			Reason: fmt.Sprintf("smallest set found has ratio %.3f > α = %.3f", ratio, alpha),
		}
	}
	return DPResult{Exists: true, Params: params, Classes: xp.Members(), Ratio: ratio}
}

// coveredWithSeed reports whether the I_E closure seeded with `seed`
// reaches every class of target (EBCheck's step 1 with a custom seed).
func (an *Analysis) coveredWithSeed(seed, target spc.ClassSet) bool {
	res := deduce.Close(an.Closure, an.Acts, seed)
	return res.Covers(target)
}

// classWeight counts the parameter occurrences in a class; used to order
// minimization so that heavy classes are dropped first.
func (an *Analysis) classWeight(class int) int {
	n := 0
	for k := 0; k < an.Closure.NumParamRefs(); k++ {
		if an.Closure.ParamClass(k) == class {
			n++
		}
	}
	return n
}

// uninstantiatedParams counts the parameter occurrences whose class no
// constant pins: the denominator of a dominating set's ratio.
func (an *Analysis) uninstantiatedParams() int {
	n := 0
	for k := 0; k < an.Closure.NumParamRefs(); k++ {
		if !an.Closure.XC().Has(an.Closure.ParamClass(k)) {
			n++
		}
	}
	return n
}
