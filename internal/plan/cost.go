package plan

import (
	"math"
	"slices"
	"strings"

	"bcq/internal/core"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/stats"
)

// Optimize generates a cost-based bounded plan: same soundness contract
// as QPlan (any firing order whose X-sets are covered before use yields a
// correct bounded plan — the I_E proof does not care which valid
// derivation it replays), but the firing order and the verification
// witnesses are chosen to minimize *expected* tuples fetched under the
// supplied cardinality statistics, instead of taking the first feasible
// derivation.
//
// The cost of a fetch step is (∏ estimated candidate counts of its X
// classes) · N̂, where N̂ is the constraint's observed average group size
// (Entries/Groups) — the declared bound N when cs is nil or silent —
// capped at the constraint's total distinct entries (a plan cannot fetch
// more distinct index entries than exist). Bound-tightening propagates
// through the deduction closure: the classes a step binds inherit its
// estimated fetch count as their candidate estimate, so a tight early
// step shrinks every later step's probe fan-out.
//
// The search is exhaustive (branch-and-bound DFS over firing sequences,
// verification cost included at the leaves) for queries of at most
// exhaustiveAtomLimit atoms, within a node budget; larger queries — or a
// blown budget — fall back to a greedy minimum-marginal-cost order. The
// naive derivation order is always evaluated too and wins ties, so
// Optimize never returns a plan its own model scores worse than QPlan's.
func Optimize(an *core.Analysis, cs Cards) (*Plan, error) {
	c, err := check(an)
	if err != nil {
		return nil, err
	}
	return c.optimize(cs, true)
}

// OptimizeGreedy is Optimize's fallback order on its own: the same
// pipeline — cost model, estimate annotation, cost-based witnesses — but
// the ordering search stops at the incumbents (derivation order vs the
// greedy minimum-marginal-cost order) and never enters the
// branch-and-bound DFS, so planning cost stays roughly linear in the act
// count instead of exponential in the atom count. Soundness is identical
// (both tiers emit through the same I_E machinery); only expected fetch
// cost can differ. The engine never calls it: tests and the benchmark's
// tracer compare it with Optimize.
func OptimizeGreedy(an *core.Analysis, cs Cards) (*Plan, error) {
	c, err := check(an)
	if err != nil {
		return nil, err
	}
	return c.optimize(cs, false)
}

// optimize is the shared cost-based pipeline; exhaustive selects the
// branch-and-bound tier over the greedy tier.
func (c *checked) optimize(cs Cards, exhaustive bool) (*Plan, error) {
	tier := TierGreedy
	if exhaustive {
		tier = TierOptimized
	}
	if c.trivial() {
		return trivialPlan(c.an.Closure, tier), nil
	}
	an, eb := c.an, c.eb
	m := newCostModel(an, cs)
	seq := m.searchOrder(eb, exhaustive)
	_, est, _ := m.replay(seq)
	p, err := emit(an, eb, seq, m.costWitness(est))
	if err != nil {
		// Every searched sequence is feasible by construction; this is a
		// belt-and-braces fallback to the derivation order.
		p, err = emit(an, eb, derivationSeq(eb), naiveWitness(an))
		if err != nil {
			return nil, err
		}
	}
	// The cards the model read price the plan's steps and are the ones
	// the plan records as probed.
	annotate(p, func(_ schema.AccessConstraint, act int) acShape { return m.acts[act].shape })
	p.Probed = m.probed(p)
	p.CostBased = true
	p.Tier = tier
	return p, nil
}

// AnnotateEstimates fills the per-step and plan-total cost estimates of
// any plan — QPlan's included — from the given statistics (nil falls
// back to declared bounds), without changing the plan's structure. It is
// how `bqrun -explain` and the conformance goldens put naive and
// cost-based plans on one scale.
func AnnotateEstimates(p *Plan, cs Cards) {
	annotate(p, func(ac schema.AccessConstraint, _ int) acShape { return shapeOf(cs, ac) })
}

// annotate fills a plan's estimates, pricing each probed constraint —
// given with its act — at shape's answer.
func annotate(p *Plan, shape func(ac schema.AccessConstraint, act int) acShape) {
	if p.Trivial {
		p.EstFetch = 0
		return
	}
	cl := p.Closure
	est := make([]float64, cl.NumClasses())
	seedEst(est, cl.XC())
	total := 0.0
	for i := range p.Steps {
		st := &p.Steps[i]
		lookups, fetch := stepEst(est, st.XClasses, shape(st.AC, st.act))
		st.EstLookups, st.EstFetch = lookups, fetch
		for _, yi := range st.BindPos {
			est[st.YClasses[yi]] = fetch
		}
		total += fetch
	}
	for i := range p.Verifies {
		vs := &p.Verifies[i]
		switch {
		case vs.Exists:
			// One fetched tuple, zero probes: NonEmpty is an O(1)
			// existence check, and the executor counts it the same way.
			vs.EstLookups, vs.EstFetch = 0, 1
			total++
		case vs.FromStep >= 0:
			vs.EstLookups, vs.EstFetch = 0, 0
		default:
			lookups, fetch := stepEst(est, vs.XClasses, shape(vs.Witness, vs.act))
			vs.EstLookups, vs.EstFetch = lookups, fetch
			total += fetch
		}
	}
	p.EstFetch = total
}

// Cards is what the cost model reads of cardinality statistics: one
// constraint's card at a time, ok false when there is none. A
// *stats.Snapshot is one (a nil one has no cards); so is a store, which
// answers from its live counters without building a snapshot.
type Cards interface {
	ACCard(key string) (stats.ACCard, bool)
}

// lookupWeight prices one index probe relative to one fetched tuple: far
// cheaper, but not free, so zero-fetch orders still prefer fewer probes
// and cost ties break deterministically toward lighter lookup plans.
const lookupWeight = 1e-3

// exhaustiveAtomLimit caps exhaustive ordering search by query size;
// beyond it (or past the node budget) the greedy order is used.
const exhaustiveAtomLimit = 8

// searchNodeBudget caps DFS node expansions, a hard stop for adversarial
// act counts (the act list grows with |Q|·|A|, not just atoms).
const searchNodeBudget = 20000

// acShape is a constraint's estimated group size and total distinct
// entries.
type acShape struct{ avg, entries float64 }

// shapeOf reads a constraint's shape from the statistics.
func shapeOf(cs Cards, ac schema.AccessConstraint) acShape {
	c, ok := readCard(cs, ac.Key())
	return cardShape(c, ok, ac.N)
}

// readCard reads one constraint's card; nil statistics have none.
func readCard(cs Cards, key string) (stats.ACCard, bool) {
	if cs == nil {
		return stats.ACCard{}, false
	}
	return cs.ACCard(key)
}

// cardShape is a constraint's shape: the observed values when the
// statistics hold a card (ok), the declared bound n with no entry cap
// otherwise. An index observed empty estimates 0 — probing it returns
// nothing.
func cardShape(c stats.ACCard, ok bool, n int64) acShape {
	if !ok {
		return acShape{avg: float64(n), entries: math.Inf(1)}
	}
	if c.Groups == 0 {
		return acShape{}
	}
	return acShape{avg: c.AvgGroup(), entries: float64(c.Entries)}
}

// stepEst estimates one probe batch: lookups = ∏ candidate estimates
// over the distinct X classes — multiplied in the order given, which the
// estimates' bits depend on — and fetch = lookups · N̂ capped at the
// constraint's total distinct entries. X sets are a few classes long, so
// a repeat is found by looking back.
func stepEst(est []float64, xClasses []int, sh acShape) (lookups, fetch float64) {
	lookups = 1
	for i, c := range xClasses {
		if !slices.Contains(xClasses[:i], c) {
			lookups *= est[c]
		}
	}
	fetch = lookups * sh.avg
	if fetch > sh.entries {
		fetch = sh.entries
	}
	return lookups, fetch
}

// seedEst resets est to the initial per-class candidate estimates: 1 for
// the constant classes, +Inf (never read before binding) elsewhere.
func seedEst(est []float64, xc spc.ClassSet) {
	for i := range est {
		est[i] = math.Inf(1)
	}
	for c := xc.Next(0); c >= 0; c = xc.Next(c + 1) {
		est[c] = 1
	}
}

// costModel scores firing sequences against cardinality statistics. It is
// built once per optimization: everything the search asks about an act or
// an atom — the constraint's shape, the classes a firing reads and may
// bind, whether it spares the atom's verification, which witnesses could
// verify the atom instead — is tabulated up front, and the search itself
// runs over those tables, one estimate vector and one populated set that
// every sequence replays into, allocating nothing per node.
type costModel struct {
	an   *core.Analysis
	acts []actCost  // aligned with an.Acts
	atom []atomCost // aligned with the query's atoms
	// goal is the classes a plan must populate: every atom's parameter
	// classes (the closure's own set, read only).
	goal spc.ClassSet

	// Scratch of the sequence being costed: the per-class candidate
	// estimates, the classes populated so far, the firings taken.
	est       []float64
	populated spc.ClassSet
	chosen    []int
}

// actCost is what the search needs of one actualized constraint.
type actCost struct {
	shape acShape
	// card and hasCard are the statistics' card the shape was read from.
	card    stats.ACCard
	hasCard bool
	atom    int
	// x is the distinct X classes (ascending, as actualization left them).
	x []int
	// y is the distinct Y classes worth binding — the goal plus every
	// act's X classes; binding anything else cannot enable a firing or
	// satisfy verification — in order of first occurrence.
	y []int
	// covers reports that X ∪ Y spans all the atom's parameter attributes:
	// once the act has fired, the atom's rows are collected from its
	// entries for free (the free-collection condition of emit).
	covers bool
}

// atomCost is what verification costing needs of one atom.
type atomCost struct {
	// exists marks a parameterless atom: one existence probe.
	exists bool
	// witnesses are the acts whose constraint is an indexedness witness of
	// the atom's parameter attributes (X ⊆ X^i_Q ⊆ X ∪ Y): the candidate
	// retrievals of its rows, in declaration order (the analysis's table).
	witnesses []int
}

// newCostModel tabulates an analysis against the statistics' cards: one
// card per constraint, read once however many atoms it was actualized on.
func newCostModel(an *core.Analysis, cs Cards) *costModel {
	cl := an.Closure
	q := cl.Query()
	n := cl.NumClasses()
	m := &costModel{
		an:   an,
		acts: make([]actCost, len(an.Acts)),
		atom: make([]atomCost, len(q.Atoms)),
		goal: cl.Params(),
		est:  make([]float64, n),
	}
	var interesting spc.ClassSet
	spc.CutClassSets(n, &m.populated, &interesting)
	interesting.AddAll(m.goal)
	yClasses := 0
	for ai := range an.Acts {
		for _, c := range an.Acts[ai].XClasses {
			interesting.Add(c)
		}
		yClasses += len(an.Acts[ai].YClasses)
	}

	// One array holds the chosen firings and every act's Y classes.
	acs := an.Access.Constraints()
	ints := make([]int, len(an.Acts)+yClasses)
	m.chosen = ints[:0:len(an.Acts)]
	ys := ints[len(an.Acts):len(an.Acts)]
	for ai := range an.Acts {
		act := &an.Acts[ai]
		from := len(ys)
		for _, c := range act.YClasses {
			if interesting.Has(c) && !slices.Contains(ys[from:], c) {
				ys = append(ys, c)
			}
		}
		a := &m.acts[ai]
		// The acts of one constraint are adjacent (sorted by N, then
		// declaration): the card is read at the first.
		if ai > 0 && an.Acts[ai-1].Ord == act.Ord {
			*a = m.acts[ai-1]
		} else {
			a.card, a.hasCard = readCard(cs, acs[act.Ord].Key())
			a.shape = cardShape(a.card, a.hasCard, act.N)
		}
		a.atom = act.Atom
		a.x = act.XClasses
		a.y = ys[from:len(ys):len(ys)]
		a.covers = an.Covers(ai)
	}
	for i := range q.Atoms {
		m.atom[i] = atomCost{exists: cl.AtomParamSet(i).IsEmpty(), witnesses: an.Witnesses(i)}
	}
	return m
}

// reset returns the scratch state to the start of a sequence: constants
// populated with estimate 1, nothing fired.
func (m *costModel) reset() {
	xc := m.an.Closure.XC()
	seedEst(m.est, xc)
	m.populated.CopyFrom(xc)
	m.chosen = m.chosen[:0]
}

// ready reports whether every X class of an act is populated.
func (m *costModel) ready(a *actCost) bool {
	for _, c := range a.x {
		if !m.populated.Has(c) {
			return false
		}
	}
	return true
}

// useful reports whether firing the act would populate a class worth
// binding; firing it otherwise is pointless.
func (m *costModel) useful(a *actCost) bool {
	for _, c := range a.y {
		if !m.populated.Has(c) {
			return true
		}
	}
	return false
}

// bind populates the classes the act newly binds with its estimated fetch
// count — bound-tightening: later steps probe once per candidate.
func (m *costModel) bind(a *actCost, fetch float64) {
	for _, c := range a.y {
		if !m.populated.Has(c) {
			m.populated.Add(c)
			m.est[c] = fetch
		}
	}
}

// searchOrder picks the firing sequence optimize emits: the best of the
// naive derivation order, the greedy order and — when exhaustive, for
// small queries, budget permitting — the branch-and-bound optimum, all
// scored by seqCost, deterministically. With exhaustive false (the
// greedy tier) the incumbents are the whole search.
func (m *costModel) searchOrder(eb core.EBResult, exhaustive bool) []int {
	bestSeq := derivationSeq(eb)
	best := m.seqCost(bestSeq)

	if g := m.greedy(); g != nil {
		if c := m.seqCost(g); c < best {
			bestSeq, best = g, c
		}
	}
	if exhaustive && len(m.atom) <= exhaustiveAtomLimit {
		ints := make([]int, len(m.acts)+len(m.est))
		s := &search{
			m: m, best: best, budget: searchNodeBudget,
			seq:  ints[:0:len(m.acts)],
			used: make([]bool, len(m.acts)),
			undo: ints[len(m.acts):len(m.acts)],
		}
		m.reset()
		s.dfs(0)
		if s.bestSeq != nil {
			bestSeq = s.bestSeq
		}
	}
	return bestSeq
}

// replay runs a firing sequence through the cost model (skipping
// unready or pointless firings), returning the firings actually taken,
// the final per-class estimates, and the accumulated step cost. It is
// the single source of truth for estimate propagation: seqCost and the
// estimates witnesses are priced in are views of it, and the emitted
// plan's annotations follow the same stepEst/bind rule. The results are
// the model's scratch, valid until the next sequence is costed.
func (m *costModel) replay(seq []int) (chosen []int, est []float64, cost float64) {
	m.reset()
	for _, ai := range seq {
		a := &m.acts[ai]
		if !m.ready(a) || !m.useful(a) {
			continue
		}
		lookups, fetch := stepEst(m.est, a.x, a.shape)
		cost += fetch + lookupWeight*lookups
		m.bind(a, fetch)
		m.chosen = append(m.chosen, ai)
	}
	return m.chosen, m.est, cost
}

// seqCost is a sequence's full estimated cost, verification included.
func (m *costModel) seqCost(seq []int) float64 {
	chosen, est, cost := m.replay(seq)
	return cost + m.verifyCost(chosen, est)
}

// greedy builds a sequence by repeatedly firing the cheapest useful act
// until the goal is covered (nil if it gets stuck, which EBCheck rules
// out for the sequences that matter). Ties break toward the lower act
// index, so the order is deterministic.
func (m *costModel) greedy() []int {
	m.reset()
	used := make([]bool, len(m.acts))
	seq := make([]int, 0, len(m.acts))
	for !m.populated.ContainsAll(m.goal) {
		bestAi := -1
		bestCost := math.Inf(1)
		var bestFetch float64
		for ai := range m.acts {
			a := &m.acts[ai]
			if used[ai] || !m.ready(a) || !m.useful(a) {
				continue
			}
			lookups, fetch := stepEst(m.est, a.x, a.shape)
			if c := fetch + lookupWeight*lookups; c < bestCost {
				bestAi, bestCost, bestFetch = ai, c, fetch
			}
		}
		if bestAi < 0 {
			return nil
		}
		used[bestAi] = true
		seq = append(seq, bestAi)
		m.bind(&m.acts[bestAi], bestFetch)
	}
	return seq
}

// verifyCost estimates phase 2 given the chosen fetch steps: free for
// atoms some chosen step covers, one probe for parameterless atoms, the
// cheapest witness retrieval otherwise.
func (m *costModel) verifyCost(chosen []int, est []float64) float64 {
	total := 0.0
	for i := range m.atom {
		if m.atom[i].exists {
			total++
			continue
		}
		if m.covered(i, chosen) {
			continue
		}
		if _, lookups, fetch, ok := m.bestWitness(i, est); ok {
			total += fetch + lookupWeight*lookups
		}
	}
	return total
}

// covered reports whether some chosen act on the atom spans all the
// atom's parameter attributes.
func (m *costModel) covered(atom int, chosen []int) bool {
	for _, ai := range chosen {
		if a := &m.acts[ai]; a.atom == atom && a.covers {
			return true
		}
	}
	return false
}

// bestWitness picks the estimated-cheapest indexedness witness of an
// atom's parameter attributes, as an act index; declaration order breaks
// ties. A witness's lookups multiply in its X attributes' order.
func (m *costModel) bestWitness(atom int, est []float64) (act int, lookups, fetch float64, ok bool) {
	cost := math.Inf(1)
	for _, ai := range m.atom[atom].witnesses {
		lo, fe := stepEst(est, m.an.Acts[ai].XAttrClasses, m.acts[ai].shape)
		if c := fe + lookupWeight*lo; c < cost {
			cost, act, lookups, fetch, ok = c, ai, lo, fe, true
		}
	}
	return act, lookups, fetch, ok
}

// costWitness is the cost-based witness rule emit uses for Optimize:
// cheapest estimated retrieval, falling back to the declared-N rule when
// the estimates price no witness (bestWitness always finds one whenever
// the atom is indexed, unless every estimate is infinite).
func (m *costModel) costWitness(est []float64) witnessPicker {
	return func(atom int) (int, bool) {
		if ai, _, _, ok := m.bestWitness(atom, est); ok {
			return ai, true
		}
		return m.an.IndexedWitness(atom)
	}
}

// probed lists the constraints a plan emitted from this model probes,
// once each and sorted by key, with the cards the model priced them by.
func (m *costModel) probed(p *Plan) []ProbedCard {
	out := make([]ProbedCard, 0, len(p.Steps)+len(p.Verifies))
	add := func(ac schema.AccessConstraint, ai int) {
		key := ac.Key()
		for i := range out {
			if out[i].Key == key {
				return
			}
		}
		out = append(out, ProbedCard{Key: key, Card: m.acts[ai].card, OK: m.acts[ai].hasCard})
	}
	for i := range p.Steps {
		add(p.Steps[i].AC, p.Steps[i].act)
	}
	for i := range p.Verifies {
		if vs := &p.Verifies[i]; !vs.Exists && vs.FromStep < 0 {
			add(vs.Witness, vs.act)
		}
	}
	slices.SortFunc(out, func(a, b ProbedCard) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// search is the branch-and-bound DFS state. The sequence under
// construction lives in the model's scratch (estimates, populated set)
// and in seq/used; undo lists the classes each firing on the current path
// bound, so leaving a node takes them back instead of the node working on
// copies.
type search struct {
	m             *costModel
	best          float64
	bestSeq       []int
	nodes, budget int
	seq           []int
	used          []bool
	undo          []int
}

// dfs extends the sequence with every useful ready act, pruning branches
// whose partial cost already matches the incumbent. Acts are tried in
// index order, so equal-cost optima resolve deterministically (strict
// improvement required to replace the incumbent).
func (s *search) dfs(cost float64) {
	m := s.m
	if cost >= s.best {
		return
	}
	if m.populated.ContainsAll(m.goal) {
		if total := cost + m.verifyCost(s.seq, m.est); total < s.best {
			s.best = total
			s.bestSeq = append(s.bestSeq[:0], s.seq...)
		}
		return
	}
	if s.nodes >= s.budget {
		return
	}
	s.nodes++
	for ai := range m.acts {
		a := &m.acts[ai]
		if s.used[ai] || !m.ready(a) || !m.useful(a) {
			continue
		}
		lookups, fetch := stepEst(m.est, a.x, a.shape)
		mark := len(s.undo)
		for _, c := range a.y {
			if !m.populated.Has(c) {
				s.undo = append(s.undo, c)
			}
		}
		m.bind(a, fetch)
		s.used[ai] = true
		s.seq = append(s.seq, ai)
		s.dfs(cost + fetch + lookupWeight*lookups)
		s.seq = s.seq[:len(s.seq)-1]
		s.used[ai] = false
		for _, c := range s.undo[mark:] {
			m.populated.Remove(c)
			m.est[c] = math.Inf(1)
		}
		s.undo = s.undo[:mark]
	}
}
