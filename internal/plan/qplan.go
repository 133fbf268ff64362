package plan

import (
	"slices"

	"bcq/internal/core"
	"bcq/internal/deduce"
	"bcq/internal/spc"
)

// QPlan generates a bounded query plan for an effectively bounded query,
// implementing the algorithm of Section 5.1. It returns a
// *NotEffectivelyBoundedError when EBCheck rejects the query.
//
// The construction:
//
//  1. run EBCheck; its closure derivation proves X_C ↦_{I_E} (X^i_Q, M_i)
//     for every atom (Theorem 4);
//  2. prune the derivation backwards to the firings that contribute to
//     covering parameter classes (directly or through the X-sets of later
//     kept firings) — the paper's "objects" o_i with their proofs o_i.P;
//  3. emit the kept firings, in derivation order, as fetch steps over the
//     candidate value sets, tracking a per-class candidate bound;
//  4. emit one verification step per atom: collected from a fetch step on
//     the same atom when that step's attributes cover X^i_Q (no extra
//     fetches), otherwise a retrieval through the indexedness witness of
//     X^i_Q (the Combination rule made executable);
//  5. the bound M = Σ step bounds is the plan's worst-case data access.
//
// QPlan keeps the derivation's own firing order — constraints ascending by
// declared N, fired as they become ready. Optimize searches alternative
// orders (and witness choices) against cardinality statistics; both share
// the emission below, so every plan either produces carries the same
// soundness argument.
//
// Complexity: O(|Q||A|) beyond the EBCheck closure, well within the
// paper's O(|Q|²|A|³).
func QPlan(an *core.Analysis) (*Plan, error) {
	c, err := check(an)
	if err != nil {
		return nil, err
	}
	if c.trivial() {
		return trivialPlan(an.Closure, TierNaive), nil
	}
	p, err := emit(an, c.eb, derivationSeq(c.eb), naiveWitness(an))
	if err != nil {
		return nil, err
	}
	p.Tier = TierNaive
	return p, nil
}

// checked is an analysis whose effective-boundedness verdict is in — the
// front half every planner shares.
type checked struct {
	an *core.Analysis
	// eb is the EBCheck verdict (always effectively bounded); zero for an
	// unsatisfiable query, which is planned without one.
	eb core.EBResult
}

// check runs the trivial (unsatisfiable) short-circuit and EBCheck. It
// returns a *NotEffectivelyBoundedError when EBCheck rejects the query.
func check(an *core.Analysis) (*checked, error) {
	if !an.Closure.Satisfiable() {
		return &checked{an: an}, nil
	}
	eb := an.EBCheck()
	if !eb.EffectivelyBounded {
		return nil, &NotEffectivelyBoundedError{Result: eb}
	}
	return &checked{an: an, eb: eb}, nil
}

// trivial reports an unsatisfiable query: its plan touches no data.
func (c *checked) trivial() bool { return !c.an.Closure.Satisfiable() }

// trivialPlan is the plan of an unsatisfiable query.
func trivialPlan(cl *spc.Closure, tier Tier) *Plan {
	return &Plan{
		Query: cl.Query(), Closure: cl, Trivial: true, Tier: tier,
		CombBound: deduce.NewBound(0), FetchBound: deduce.NewBound(0),
	}
}

// derivationSeq flattens the EBCheck derivation into its firing sequence
// (act indices, in firing order) — the naive plan order.
func derivationSeq(eb core.EBResult) []int {
	seq := make([]int, len(eb.Derivation.Steps))
	for i, st := range eb.Derivation.Steps {
		seq[i] = st.Act
	}
	return seq
}

// witnessPicker chooses the indexedness witness a verification step
// retrieves through: one of the atom's witness acts.
type witnessPicker func(atom int) (act int, ok bool)

// naiveWitness is QPlan's witness rule: the declared-N-minimal witness.
func naiveWitness(an *core.Analysis) witnessPicker { return an.IndexedWitness }

// emit turns a firing sequence into a bounded plan: backward-prune the
// sequence to the firings that contribute to covering parameter classes,
// then run steps 3–5 of the QPlan construction over the kept firings in
// order. The sequence may be any order in which every firing's X classes
// are covered (by X_C or earlier firings) before it fires — the
// derivation order and every order the optimizer searches satisfy this
// by construction. Everything is read by position from the analysis's
// tables; a constraint is copied only into the step that probes it.
func emit(an *core.Analysis, eb core.EBResult, seq []int, pick witnessPicker) (*Plan, error) {
	cl := an.Closure
	q := cl.Query()
	n := cl.NumClasses()
	acs := an.Access.Constraints()
	p := &Plan{Query: q, Closure: cl}
	xc := cl.XC()

	// Parameter classes that need candidate values.
	var needed, covered, populated spc.ClassSet
	spc.CutClassSets(n, &needed, &covered, &populated)
	allParams := cl.Params() // ∪_i X^i_Q
	needed.AddAll(allParams)

	// Simulate first-covers: firstBy[c] is the position in the sequence of
	// the firing that is first to cover class c (the derivation's
	// NewClasses, generalized to arbitrary sequences); -1 for the constant
	// classes and the ones never covered. keep[k] marks the kept firings.
	// One array holds both, the steps' bound positions (at most every Y
	// position of the sequence) and the output classes.
	covered.AddAll(xc)
	ys := 0
	for _, ai := range seq {
		ys += len(an.Acts[ai].YClasses)
	}
	ints := make([]int, n+len(seq)+ys+len(q.Output))
	firstBy, keep, ints := ints[:n], ints[n:n+len(seq)], ints[n+len(seq):]
	bindPos, outClasses := ints[:0:ys], ints[ys:]
	for c := range firstBy {
		firstBy[c] = -1
	}
	for k, ai := range seq {
		for _, c := range an.Acts[ai].YClasses {
			if !covered.Has(c) {
				covered.Add(c)
				firstBy[c] = k
			}
		}
	}

	// Step 2: backward pruning. A firing is kept when it first-covers a
	// needed class; the X classes of kept firings become needed in turn.
	kept := 0
	for k := len(seq) - 1; k >= 0; k-- {
		act := &an.Acts[seq[k]]
		useful := false
		for _, c := range act.YClasses {
			if firstBy[c] == k && needed.Has(c) {
				useful = true
				break
			}
		}
		if !useful {
			continue
		}
		keep[k] = 1
		kept++
		for _, c := range act.XClasses {
			needed.Add(c)
		}
	}

	// Seeds: the constant classes, in class order.
	p.Seeds = make([]Seed, 0, xc.Len())
	for c := xc.Next(0); c >= 0; c = xc.Next(c + 1) {
		if v, ok := cl.ConstOf(c); ok {
			p.Seeds = append(p.Seeds, Seed{Class: c, Val: v})
		}
	}

	// Step 3: forward emission with per-class candidate bounds. A step's
	// class and position lists are the act's and the compiled
	// constraint's own; the bound positions are windows of bindPos.
	cand := make([]deduce.Bound, n)
	for i := range cand {
		cand[i] = deduce.Unbounded
	}
	for c := xc.Next(0); c >= 0; c = xc.Next(c + 1) {
		cand[c] = deduce.NewBound(1)
		populated.Add(c)
	}
	fetch := deduce.NewBound(0)
	p.Steps = make([]FetchStep, 0, kept)
	for k, ai := range seq {
		if keep[k] == 0 {
			continue
		}
		act := &an.Acts[ai]
		fs := FetchStep{Atom: act.Atom, AC: acs[act.Ord], XClasses: act.XAttrClasses, YClasses: act.YClasses,
			YPos: an.Compiled.Constraint(act.Ord).YPos, act: ai}
		fs.StepBound = candProduct(cand, act.XAttrClasses).Mul(deduce.NewBound(act.N))
		yb := fs.StepBound
		from := len(bindPos)
		for yi, c := range fs.YClasses {
			if !populated.Has(c) && needed.Has(c) {
				bindPos = append(bindPos, yi)
			}
		}
		fs.BindPos = bindPos[from:len(bindPos):len(bindPos)]
		for _, yi := range fs.BindPos {
			c := fs.YClasses[yi]
			populated.Add(c)
			cand[c] = yb
		}
		fetch = fetch.Add(fs.StepBound)
		p.Steps = append(p.Steps, fs)
	}

	// Step 4: verification per atom. The row sources of all atoms are
	// windows of one array: an atom has at most one per parameter
	// occurrence.
	p.Verifies = make([]VerifyStep, 0, len(q.Atoms))
	rows := make([]RowSource, 0, cl.NumParamRefs())
	for i := range q.Atoms {
		if cl.AtomParamSet(i).IsEmpty() {
			vs := VerifyStep{Atom: i, Exists: true, FromStep: -1, StepBound: deduce.NewBound(1)}
			fetch = fetch.Add(vs.StepBound)
			p.Verifies = append(p.Verifies, vs)
			continue
		}

		// Try to collect R_i from a fetch step on this atom whose
		// attributes cover X^i_Q (attribute-level, so within-atom
		// equalities stay checkable).
		vs := VerifyStep{Atom: i, FromStep: -1}
		for j := range p.Steps {
			fs := &p.Steps[j]
			if fs.Atom == i && an.Covers(fs.act) {
				vs.FromStep = j
				rc := an.Compiled.Constraint(an.Acts[fs.act].Ord)
				rows = buildRowSources(&vs, rows, cl, i, rc.XPos, rc.YPos)
				vs.StepBound = deduce.NewBound(0)
				break
			}
		}
		if vs.FromStep < 0 {
			ai, ok := pick(i)
			if !ok {
				// EBCheck guarantees indexedness; reaching here is a bug.
				return nil, &NotEffectivelyBoundedError{Result: eb}
			}
			act := &an.Acts[ai]
			rc := an.Compiled.Constraint(act.Ord)
			vs.Witness, vs.act = acs[act.Ord], ai
			vs.XClasses, vs.YPos = act.XAttrClasses, rc.YPos
			rows = buildRowSources(&vs, rows, cl, i, rc.XPos, rc.YPos)
			vs.StepBound = candProduct(cand, act.XAttrClasses).Mul(deduce.NewBound(act.N))
			fetch = fetch.Add(vs.StepBound)
		}
		p.Verifies = append(p.Verifies, vs)
	}

	// Step 5: output projection and bounds.
	for k := range outClasses {
		outClasses[k] = cl.OutputClass(k)
	}
	p.OutputClasses = outClasses
	p.CandBound = cand
	comb := deduce.NewBound(1)
	for c := allParams.Next(0); c >= 0; c = allParams.Next(c + 1) {
		comb = comb.Mul(cand[c])
	}
	p.CombBound = comb
	p.FetchBound = fetch

	// Sanity: every parameter class must have a populated candidate set.
	if !populated.ContainsAll(allParams) {
		return nil, &NotEffectivelyBoundedError{Result: eb}
	}
	return p, nil
}

// candProduct is the product of the candidate bounds of the distinct
// classes of a lookup (aligned with the constraint's X, so a class may
// repeat): the number of probes it makes at worst.
func candProduct(cand []deduce.Bound, xClasses []int) deduce.Bound {
	b := deduce.NewBound(1)
	for i, c := range xClasses {
		if !slices.Contains(xClasses[:i], c) {
			b = b.Mul(cand[c])
		}
	}
	return b
}

// buildRowSources fills vs.Row and vs.Consistency for the atom's parameter
// attributes, taken in attribute-name order, drawn from the lookup
// attributes at positions xPos (combo positions) and the entry attributes
// at yPos (entry Y positions). vs.Row is cut from the end of rows, which
// is returned extended.
func buildRowSources(vs *VerifyStep, rows []RowSource, cl *spc.Closure, atom int, xPos, yPos []int) []RowSource {
	from := len(rows)
	params := cl.AtomParamSet(atom)
	for _, a := range cl.Relation(atom).NameOrder() {
		if !params.Has(a) {
			continue
		}
		c := cl.ClassAt(atom, a)
		src := RowSource{Class: c, FromX: slices.Index(xPos, a), FromY: -1}
		if src.FromX < 0 {
			src.FromY = slices.Index(yPos, a)
			if src.FromY < 0 {
				// The caller checked coverage; unreachable.
				continue
			}
		}
		first := from // the class's first source, if an earlier attribute had one
		for first < len(rows) && rows[first].Class != c {
			first++
		}
		if first < len(rows) {
			// Within-atom equality: both occurrences must agree in the
			// entry. Two X positions agree by construction (combos are
			// built per class); record the pair otherwise.
			if prev := rows[first]; !(prev.FromX >= 0 && src.FromX >= 0) {
				vs.Consistency = append(vs.Consistency, prev, src)
			}
			continue
		}
		rows = append(rows, src)
	}
	vs.Row = rows[from:len(rows):len(rows)]
	return rows
}
