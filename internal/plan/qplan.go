package plan

import (
	"slices"

	"bcq/internal/core"
	"bcq/internal/deduce"
	"bcq/internal/schema"
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
// retrieves through, given the atom's parameter attributes and the
// per-class candidate bounds at emission time.
type witnessPicker func(atom int, rel string, attrs []string, cand []deduce.Bound) (schema.AccessConstraint, bool)

// naiveWitness is QPlan's witness rule: the declared-N-minimal witness
// (AccessSchema.Indexed).
func naiveWitness(an *core.Analysis) witnessPicker {
	return func(_ int, rel string, attrs []string, _ []deduce.Bound) (schema.AccessConstraint, bool) {
		return an.Access.Indexed(rel, attrs)
	}
}

// emit turns a firing sequence into a bounded plan: backward-prune the
// sequence to the firings that contribute to covering parameter classes,
// then run steps 3–5 of the QPlan construction over the kept firings in
// order. The sequence may be any order in which every firing's X classes
// are covered (by X_C or earlier firings) before it fires — the
// derivation order and every order the optimizer searches satisfy this
// by construction.
func emit(an *core.Analysis, eb core.EBResult, seq []int, pick witnessPicker) (*Plan, error) {
	cl := an.Closure
	cat := an.Catalog()
	q := cl.Query()
	n := cl.NumClasses()
	p := &Plan{Query: q, Closure: cl}
	xc := cl.XC()

	// Parameter classes that need candidate values.
	sets := spc.NewClassSets(3, n)
	needed, covered, populated := sets[0], sets[1], sets[2]
	allParams := cl.Params() // ∪_i X^i_Q
	needed.AddAll(allParams)

	// Simulate first-covers: firstBy[c] is the position in the sequence of
	// the firing that is first to cover class c (the derivation's
	// NewClasses, generalized to arbitrary sequences); -1 for the constant
	// classes and the ones never covered.
	covered.AddAll(xc)
	firstBy := make([]int, n)
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

	// Step 2: backward pruning. keep[k] marks firings that first-cover a
	// needed class; the X classes of kept firings become needed in turn.
	keep := make([]bool, len(seq))
	kept, stepClasses := 0, 0
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
		keep[k] = true
		kept++
		stepClasses += len(act.AC.X) + 3*len(act.AC.Y)
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

	// Step 3: forward emission with per-class candidate bounds. The steps'
	// class lists are windows of one array.
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
	ints := make([]int, 0, stepClasses)
	for k, ai := range seq {
		if !keep[k] {
			continue
		}
		act := &an.Acts[ai]
		fs := FetchStep{Atom: act.Atom, AC: act.AC}
		xb := deduce.NewBound(1)
		from := len(ints)
		for _, c := range act.XAttrClasses { // aligned with AC.X
			if !slices.Contains(ints[from:], c) {
				xb = xb.Mul(cand[c])
			}
			ints = append(ints, c)
		}
		fs.XClasses = ints[from:len(ints):len(ints)]
		fs.StepBound = xb.Mul(deduce.NewBound(act.AC.N))
		yb := fs.StepBound
		from = len(ints)
		ints = append(ints, act.YClasses...) // aligned with AC.Y
		fs.YClasses = ints[from:len(ints):len(ints)]
		ints = appendPositions(ints, cat, act.AC.Rel, act.AC.Y)
		fs.YPos = ints[len(ints)-len(act.AC.Y) : len(ints) : len(ints)]
		from = len(ints)
		for yi, c := range fs.YClasses {
			if !populated.Has(c) && needed.Has(c) {
				ints = append(ints, yi)
			}
		}
		fs.BindPos = ints[from:len(ints):len(ints)]
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
	rows := make([]RowSource, 0, len(cl.ParamRefs()))
	for i, atom := range q.Atoms {
		attrs := cl.AtomParamAttrs(i)
		if len(attrs) == 0 {
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
			if fs.Atom == i && fs.AC.CoversAll(attrs) {
				vs.FromStep = j
				rows = buildRowSources(&vs, rows, cl, i, attrs, fs.AC.X, fs.AC.Y)
				vs.StepBound = deduce.NewBound(0)
				break
			}
		}
		if vs.FromStep < 0 {
			w, ok := pick(i, atom.Rel, attrs, cand)
			if !ok {
				// EBCheck guarantees indexedness; reaching here is a bug.
				return nil, &NotEffectivelyBoundedError{Result: eb}
			}
			vs.Witness = w
			xb := deduce.NewBound(1)
			ws := make([]int, 0, len(w.X)+len(w.Y))
			for _, attr := range w.X {
				c := cl.MustClass(spc.AttrRef{Atom: i, Attr: attr})
				if !slices.Contains(ws, c) {
					xb = xb.Mul(cand[c])
				}
				ws = append(ws, c)
			}
			vs.XClasses = ws[:len(w.X):len(w.X)]
			vs.YPos = appendPositions(ws, cat, w.Rel, w.Y)[len(w.X):]
			rows = buildRowSources(&vs, rows, cl, i, attrs, w.X, w.Y)
			vs.StepBound = xb.Mul(deduce.NewBound(w.N))
			fetch = fetch.Add(vs.StepBound)
		}
		p.Verifies = append(p.Verifies, vs)
	}

	// Step 5: output projection and bounds.
	p.OutputClasses = make([]int, 0, len(q.Output))
	for _, col := range q.Output {
		p.OutputClasses = append(p.OutputClasses, cl.MustClass(col.Ref))
	}
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

// appendPositions appends the schema positions of a constraint's
// attributes on its relation. The analysis validated the access schema
// against the catalog, so both lookups succeed.
func appendPositions(dst []int, cat *schema.Catalog, rel string, attrs []string) []int {
	rs, _ := cat.Relation(rel)
	for _, a := range attrs {
		dst = append(dst, rs.Pos(a))
	}
	return dst
}

// buildRowSources fills vs.Row and vs.Consistency for the atom's parameter
// attributes, drawn from the lookup attributes xAttrs (combo positions) and
// entry attributes yAttrs (entry Y positions). vs.Row is cut from the end
// of rows, which is returned extended.
func buildRowSources(vs *VerifyStep, rows []RowSource, cl *spc.Closure, atom int, paramAttrs, xAttrs, yAttrs []string) []RowSource {
	from := len(rows)
	for _, a := range paramAttrs {
		c := cl.MustClass(spc.AttrRef{Atom: atom, Attr: a})
		src := RowSource{Class: c, FromX: slices.Index(xAttrs, a), FromY: -1}
		if src.FromX < 0 {
			src.FromY = slices.Index(yAttrs, a)
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
