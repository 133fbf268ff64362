package core

import (
	"fmt"
	"sort"

	"bcq/internal/deduce"
	"bcq/internal/spc"
)

// The problems in this file are intractable in general — DP(Q, A) is
// NP-complete, MDP(Q, A) is NPO-complete (Theorem 7), and (effective)
// M-boundedness is NP-complete (Theorem 8) — so the solvers here are exact
// exponential searches gated by a candidate-count limit. They exist to
// validate the heuristics on small inputs and to exhibit the complexity
// wall empirically (Table 2 benchmarks).

// ErrTooLarge is returned when an exact solver's input exceeds its search
// limit.
var ErrTooLarge = fmt.Errorf("core: input too large for exact search")

// ExactMinDP computes a minimum dominating-parameter set by exhaustive
// subset search over the candidate classes, smallest occurrence-count
// first. It answers MDP(Q, A) exactly. maxCandidates caps the search
// (2^maxCandidates subsets); 0 means the default of 20.
func (an *Analysis) ExactMinDP(alpha float64, maxCandidates int) (DPResult, error) {
	if maxCandidates <= 0 {
		maxCandidates = 20
	}
	cl := an.Closure
	if !cl.Satisfiable() {
		return DPResult{Exists: false, Reason: "query is unsatisfiable"}, nil
	}
	if eb := an.EBCheck(); eb.EffectivelyBounded {
		return DPResult{Exists: true, Ratio: 0}, nil
	}
	for i, atom := range cl.Query().Atoms {
		if !an.Indexed(i) {
			return DPResult{Exists: false, Reason: "atom " + atom.Alias + " is not indexed"}, nil
		}
	}

	// Candidate classes: uninstantiated parameter classes.
	var cand []int
	for _, c := range cl.Params().Members() {
		if !cl.XC().Has(c) {
			cand = append(cand, c)
		}
	}
	if len(cand) > maxCandidates {
		return DPResult{}, fmt.Errorf("%w: %d candidate classes > limit %d", ErrTooLarge, len(cand), maxCandidates)
	}

	allParams := spc.NewClassSet(cl.NumClasses())
	for i := range cl.Query().Atoms {
		allParams.AddAll(cl.AtomParams(i))
	}
	denominator := an.uninstantiatedParams()

	best := DPResult{Exists: false, Reason: "no subset of parameters makes the query effectively bounded"}
	bestWeight := denominator + 1

	// Enumerate subsets; weight = number of parameter occurrences, which is
	// what |X_P| counts (Example 9 counts occurrences, not classes).
	for mask := 0; mask < 1<<len(cand); mask++ {
		weight := 0
		seed := cl.XC().Clone()
		subset := spc.NewClassSet(cl.NumClasses())
		for b, c := range cand {
			if mask&(1<<b) != 0 {
				seed.Add(c)
				subset.Add(c)
				weight += an.classWeight(c)
			}
		}
		if weight >= bestWeight || weight == denominator {
			continue // not better, or trivial (all parameters)
		}
		if !an.coveredWithSeed(seed, allParams) {
			continue
		}
		ratio := 0.0
		if denominator > 0 {
			ratio = float64(weight) / float64(denominator)
		}
		if ratio > alpha {
			continue
		}
		var params []spc.AttrRef
		for k, ref := range cl.ParamRefs() {
			if subset.Has(cl.ParamClass(k)) {
				params = append(params, ref)
			}
		}
		best = DPResult{Exists: true, Params: params, Classes: subset.Members(), Ratio: ratio}
		bestWeight = weight
	}
	return best, nil
}

// MBoundedResult is the outcome of the exact M-boundedness check
// (Section 5.2).
type MBoundedResult struct {
	// EffectivelyBounded reports whether any plan exists at all.
	EffectivelyBounded bool
	// MinFetchBound is the smallest worst-case fetch bound over all
	// derivations (orders and subsets of constraint applications): the
	// optimal |D_Q| guarantee. Unbounded when not effectively bounded.
	MinFetchBound deduce.Bound
	// MBounded reports MinFetchBound ≤ M for the M that was asked about.
	MBounded bool
}

// ExactMBounded decides whether Q is effectively M-bounded under A: is
// there a bounded evaluation plan fetching at most M tuples on every
// database satisfying A? It searches all derivation orders, computing the
// minimum worst-case fetch bound; Theorem 8 says this is NP-complete when M
// is part of the input, and the search is exponential in the number of
// actualized constraints (capped by maxActs; 0 means the default of 18).
//
// The fetch-bound model matches the planner's (package plan): each class
// carries a candidate-count bound; firing a constraint costs
// (∏ candidate bounds of its X classes)·N and gives its newly covered Y
// classes that candidate bound; verification per atom is free when a fired
// constraint on the atom covers X^i_Q (collected from its entries) and
// otherwise costs (∏ candidate bounds of the witness X classes)·N_w for
// the cheapest applicable witness.
func (an *Analysis) ExactMBounded(m int64, maxActs int) (MBoundedResult, error) {
	if maxActs <= 0 {
		maxActs = 18
	}
	cl := an.Closure
	q := cl.Query()
	if !cl.Satisfiable() {
		return MBoundedResult{EffectivelyBounded: true, MinFetchBound: deduce.NewBound(0), MBounded: true}, nil
	}
	eb := an.EBCheck()
	if !eb.EffectivelyBounded {
		return MBoundedResult{EffectivelyBounded: false, MinFetchBound: deduce.Unbounded}, nil
	}
	if len(an.Acts) > maxActs {
		return MBoundedResult{}, fmt.Errorf("%w: %d actualized constraints > limit %d", ErrTooLarge, len(an.Acts), maxActs)
	}

	allParams := spc.NewClassSet(cl.NumClasses())
	for i := range q.Atoms {
		allParams.AddAll(cl.AtomParams(i))
	}

	// Witness options per atom: the X classes and N of every indexedness
	// witness, used when no fired constraint covers the atom.
	type witnessOpt struct {
		xClasses []int
		n        int64
	}
	witnesses := make([][]witnessOpt, len(q.Atoms))
	for i := range q.Atoms {
		for _, ai := range an.Witnesses(i) {
			witnesses[i] = append(witnesses[i], witnessOpt{xClasses: an.Acts[ai].XClasses, n: an.Acts[ai].N})
		}
	}

	best := deduce.Unbounded
	cand := make([]deduce.Bound, cl.NumClasses())
	for i := range cand {
		cand[i] = deduce.Unbounded
	}
	for _, c := range cl.XC().Members() {
		cand[c] = deduce.NewBound(1)
	}

	prodOf := func(classes []int) deduce.Bound {
		b := deduce.NewBound(1)
		for _, c := range classes {
			b = b.Mul(cand[c])
		}
		return b
	}

	covered := cl.XC().Clone()
	var fired uint64

	finish := func(cost deduce.Bound) {
		// Add verification costs for the current derivation.
		total := cost
		for i := range q.Atoms {
			if cl.AtomParamSet(i).IsEmpty() {
				total = total.Add(deduce.NewBound(1))
				continue
			}
			// Free when a fired constraint on the atom covers X^i_Q: its
			// entries yield the verified rows.
			free := false
			for ai := range an.Acts {
				if fired&(1<<uint(ai)) != 0 && an.Acts[ai].Atom == i && an.Covers(ai) {
					free = true
				}
			}
			if free {
				continue
			}
			vbest := deduce.Unbounded
			for _, w := range witnesses[i] {
				ok := true
				for _, c := range w.xClasses {
					if !covered.Has(c) {
						ok = false
						break
					}
				}
				if ok {
					vbest = vbest.Min(prodOf(w.xClasses).Mul(deduce.NewBound(w.n)))
				}
			}
			total = total.Add(vbest)
		}
		best = best.Min(total)
	}

	var dfs func(cost deduce.Bound)
	dfs = func(cost deduce.Bound) {
		if !cost.Less(best) {
			return
		}
		if covered.ContainsAll(allParams) {
			finish(cost)
			// Keep exploring: firing more constraints can still reduce the
			// verification cost (collect-for-free), so do not return here.
		}
		for ai, act := range an.Acts {
			bit := uint64(1) << uint(ai)
			if fired&bit != 0 {
				continue
			}
			ready := true
			for _, c := range act.XClasses {
				if !covered.Has(c) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			newCovers := false
			for _, c := range act.YClasses {
				if !covered.Has(c) {
					newCovers = true
					break
				}
			}
			// A firing is worth exploring when it covers a new class or
			// verifies an atom for free.
			if !newCovers && !an.Covers(ai) {
				continue
			}
			xb := prodOf(act.XClasses)
			stepCost := xb.Mul(deduce.NewBound(act.N))

			var newClasses []int
			saved := make(map[int]deduce.Bound)
			for _, c := range act.YClasses {
				if !covered.Has(c) {
					newClasses = append(newClasses, c)
					saved[c] = cand[c]
					covered.Add(c)
					cand[c] = xb.Mul(deduce.NewBound(act.N))
				}
			}
			fired |= bit
			dfs(cost.Add(stepCost))
			fired &^= bit
			for _, c := range newClasses {
				covered.Remove(c)
				cand[c] = saved[c]
			}
		}
	}
	dfs(deduce.NewBound(0))

	res := MBoundedResult{EffectivelyBounded: true, MinFetchBound: best}
	res.MBounded = !best.IsUnbounded() && best.Int64() <= m
	return res, nil
}

// SortRefs orders attribute occurrences deterministically (by atom, then
// attribute); helper shared by result renderers.
func SortRefs(refs []spc.AttrRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Atom != refs[j].Atom {
			return refs[i].Atom < refs[j].Atom
		}
		return refs[i].Attr < refs[j].Attr
	})
}
