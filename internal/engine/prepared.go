package engine

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"bcq/internal/core"
	"bcq/internal/deduce"
	"bcq/internal/exec"
	"bcq/internal/obs"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/stats"
	"bcq/internal/value"
)

// Prepared is a planned query shape, ready for repeated execution. For a
// parameterized template the plan was generated against opaque sentinel
// constants — one per Σ_Q class of placeholder slots — and Exec rebinds
// the plan's seeds to the argument vector, so no per-request analysis or
// planning happens. Prepared values are safe for concurrent Exec from
// many goroutines: everything a caller can observe lives behind one
// atomically published planState, so a background upgrade (or drift
// re-plan) swapping the plan never exposes a half-replaced bundle.
type Prepared struct {
	eng *Engine
	// query is the validated template (placeholders unbound) and fp its
	// fingerprint, the key this Prepared was cached under.
	query *spc.Query
	fp    string
	// state is the atomically published plan bundle. Readers load it
	// exactly once per operation (bind, Explain, the accessor methods),
	// so every execution runs one coherent plan even while an upgrade
	// installs the next one. The pointer is never nil after build.
	state atomic.Pointer[planState]
	// upgradeQueued is set, under eng.mu, once a tiered engine's cache hit
	// queued this Prepared's upgrade (a hit the full queue sheds does not).
	upgradeQueued bool
}

// planState bundles everything that must swap together when a plan is
// replaced: the slots carry the plan's own Σ_Q class numbering, and the
// statistics fingerprint is over the constraints this plan probes — a
// plan paired with another plan's slots or fingerprint would be wrong in
// ways the type system cannot see.
type planState struct {
	// pl is the cached plan: the template's own plan when it has no
	// placeholders, otherwise the sentinel-instantiated plan.
	pl *plan.Plan
	// slots aligns with query.Placeholders: how each positional argument
	// reaches this plan (classes are in pl's closure numbering).
	slots []paramSlot
	// acKeys are the access constraints the plan probes (fetch steps and
	// retrieval witnesses), sorted, and shapes their quantized observed
	// cardinalities at planning time, key by key — what the statistics
	// fingerprint renders. A cache hit whose source no longer shows those
	// shapes triggers a re-plan (see Engine.current).
	acKeys []string
	shapes []stats.Shape
	// verifiedAt is the source epoch at which shapes were last seen to
	// match the store's statistics (Engine.current) — the one mutable
	// field of the bundle, a memo of a check and no part of the plan.
	verifiedAt atomic.Uint64
	// checked is the analysis the plan was generated from, with its
	// EBCheck verdict, and checkedAt the source version read before the
	// access schema it was analysed under. Only a tiered engine's greedy
	// bundle carries them: the background upgrade plans the optimized tier
	// from the same analysis when the version has not moved, and the bundle
	// it installs carries none, so an upgraded plan holds no analysis.
	checked   *plan.Checked
	checkedAt uint64
}

// paramSlot says how one placeholder argument binds into the plan.
type paramSlot struct {
	// ref is the placeholder's attribute occurrence (diagnostics).
	ref spc.AttrRef
	// class is the slot's Σ_Q class in the instantiated plan's closure;
	// the seed of this class is rewritten to the argument.
	class int
	// val is the value the plan was generated with: an opaque sentinel,
	// or — when fixed — a constant the query text already pins the class
	// to.
	val value.Value
	// fixed marks slots whose class the template also pins with a real
	// constant (e.g. "a = ? and a = 3"): the plan's seed is that
	// constant, and an argument differing from it makes the query
	// unsatisfiable rather than rebindable.
	fixed bool
}

// build runs the one-time preparation pipeline: sentinel instantiation
// (for templates), analysis and planning. The access schema and the
// source version read before it are passed in by prepare — the pair that
// tags a cached failure, and a kept analysis, for later invalidation. The
// planning tier follows the engine's mode: optimized engines pay the full
// search on the cold path, greedy and tiered engines return the greedy
// order (and a tiered engine's first cache hit on the plan queues its
// background upgrade, in lookupOrBuild).
func (e *Engine) build(pt parsedText, acc *schema.AccessSchema, ver uint64) (*Prepared, error) {
	chk, slots, err := e.analyze(pt.q, acc)
	if err != nil {
		return nil, err
	}
	st, err := e.planState(chk, slots, e.mode == PlanOptimized)
	if err != nil {
		return nil, err
	}
	if e.mode == PlanTiered {
		st.checked, st.checkedAt = chk, ver
	}
	p := &Prepared{eng: e, query: pt.q, fp: pt.fp}
	p.state.Store(st)
	return p, nil
}

// analyze runs the statistics-independent half of a preparation: sentinel
// instantiation of a template's placeholders, the Σ_Q closure, constraint
// actualization and EBCheck. It returns the checked analysis and the
// placeholder slots, keyed to the analysis's class numbering.
func (e *Engine) analyze(q *spc.Query, acc *schema.AccessSchema) (*plan.Checked, []paramSlot, error) {
	inst := q
	var slots []paramSlot
	if len(q.Placeholders) > 0 {
		tcl, err := spc.NewClosure(q, e.cat)
		if err != nil {
			return nil, nil, err
		}
		bindings := make(map[spc.AttrRef]value.Value, len(q.Placeholders))
		slots = make([]paramSlot, 0, len(q.Placeholders))
		classes := 0 // distinct Σ_Q classes among the slots so far
		for _, ref := range q.Placeholders {
			c := tcl.MustClass(ref)
			// One value per class: a later slot of a class takes the first
			// one's.
			var slot paramSlot
			if k := slices.IndexFunc(slots, func(s paramSlot) bool { return s.class == c }); k >= 0 {
				slot = slots[k]
			} else {
				if cv, pinned := tcl.ConstOf(c); pinned {
					slot = paramSlot{class: c, val: cv, fixed: true}
				} else {
					slot = paramSlot{class: c, val: sentinel(q, classes)}
				}
				classes++
			}
			slot.ref = ref
			slots = append(slots, slot)
			bindings[ref] = slot.val
		}
		inst = q.Instantiate(bindings)
	}

	an, err := core.NewAnalysis(e.cat, inst, acc)
	if err != nil {
		return nil, nil, err
	}
	chk, err := plan.Check(an)
	if err != nil {
		return nil, nil, err
	}
	// Re-key the slots to the instantiated closure: the plan's seeds carry
	// its class numbering, which instantiation may have changed.
	for i := range slots {
		slots[i].class = an.Closure.MustClass(slots[i].ref)
	}
	return chk, slots, nil
}

// planState runs the statistics-dependent half — the cost-based ordering
// search at the requested tier, emission, and the shapes of the
// statistics the plan was costed against — and returns the resulting plan
// bundle, costed against the source's own cards (one constraint at a
// time, no statistics snapshot). It is called on the cold prepare path
// and again by the upgrade worker, both outside the engine mutex.
func (e *Engine) planState(chk *plan.Checked, slots []paramSlot, exhaustive bool) (*planState, error) {
	// Epoch before statistics, like every reader of the pair: a commit
	// landing mid-build leaves the older epoch, so the next hit re-checks.
	epoch := e.src.Epoch()
	var pl *plan.Plan
	var err error
	if exhaustive {
		pl, err = chk.Optimize(e.src)
	} else {
		pl, err = chk.OptimizeGreedy(e.src)
	}
	if err != nil {
		return nil, err
	}
	acKeys := planACKeys(pl)
	shapes := make([]stats.Shape, len(acKeys))
	for i, key := range acKeys {
		shapes[i] = stats.ShapeOf(e.src.ACCard(key))
	}
	st := &planState{pl: pl, slots: slots, acKeys: acKeys, shapes: shapes}
	st.verifiedAt.Store(epoch)
	return st, nil
}

// planACKeys collects the constraints a plan probes — the slice of the
// cardinality statistics its cost depends on — sorted, as
// stats.Snapshot.Fingerprint renders them.
func planACKeys(pl *plan.Plan) []string {
	out := make([]string, 0, len(pl.Steps)+len(pl.Verifies))
	add := func(key string) {
		if !slices.Contains(out, key) {
			out = append(out, key)
		}
	}
	for _, st := range pl.Steps {
		add(st.AC.Key())
	}
	for _, vs := range pl.Verifies {
		if !vs.Exists && vs.FromStep < 0 {
			add(vs.Witness.Key())
		}
	}
	sort.Strings(out)
	return out
}

// sentinel produces the opaque constant a placeholder class is planned
// against. The value never leaks into answers (placeholder classes are
// seeds, rewritten before every execution); it only has to be distinct
// from every constant of the query, which the \x00 prefix plus a
// collision check guarantees.
func sentinel(q *spc.Query, k int) value.Value {
	v := value.Str("\x00bcq:param:" + strconv.Itoa(k))
	for slices.ContainsFunc(q.EqConsts, func(e spc.EqConst) bool { return e.C == v }) {
		v = value.Str(v.AsString() + "'")
	}
	return v
}

// Query returns the prepared template. Treat it as immutable.
func (p *Prepared) Query() *spc.Query { return p.query }

// Fingerprint is the normalized rendering of the template the plan cache
// keys on (Query().String(), rendered once at preparation): two texts of
// one shape share it.
func (p *Prepared) Fingerprint() string { return p.fp }

// Plan returns the currently installed plan — re-read it per use, since
// a background upgrade or drift re-plan may have replaced it since the
// last call. For a parameterized template the seed values of placeholder
// classes are opaque sentinels; everything else — steps, verifications,
// bounds — is exactly what every execution runs.
func (p *Prepared) Plan() *plan.Plan { return p.state.Load().pl }

// PlanTier reports which planning tier produced the currently installed
// plan: greedy until a tiered engine's background upgrade lands,
// optimized after.
func (p *Prepared) PlanTier() plan.Tier { return p.state.Load().pl.Tier }

// FetchBound is the plan's worst-case data access, the paper's M.
func (p *Prepared) FetchBound() deduce.Bound { return p.state.Load().pl.FetchBound }

// EstFetch is the cost model's expected tuples fetched, from the
// cardinality statistics current when the plan was generated.
func (p *Prepared) EstFetch() float64 { return p.state.Load().pl.EstFetch }

// StatsFingerprint is the quantized cardinality fingerprint the plan was
// costed against; the plan cache re-plans when the store's current
// fingerprint for the same constraints differs.
func (p *Prepared) StatsFingerprint() string { return p.state.Load().statsFingerprint() }

// statsFingerprint renders the bundle's shapes as the fingerprint
// stats.Snapshot.Fingerprint gives for its constraints.
func (st *planState) statsFingerprint() string { return stats.Render(st.acKeys, st.shapes) }

// PlanSnapshot is one coherent read of a Prepared's live plan bundle:
// the plan, its tier and the statistics fingerprint it was costed
// against all come from the same atomic load, so a report built from one
// snapshot can never mix a pre-upgrade plan with a post-upgrade
// fingerprint (or vice versa).
type PlanSnapshot struct {
	Plan    *plan.Plan
	Tier    plan.Tier
	StatsFP string
}

// Snapshot returns one coherent view of the currently installed plan.
func (p *Prepared) Snapshot() PlanSnapshot {
	st := p.state.Load()
	return PlanSnapshot{Plan: st.pl, Tier: st.pl.Tier, StatsFP: st.statsFingerprint()}
}

// Explain renders the currently installed plan with its cost estimates;
// pass a Result from Exec to print each step's actual probe and fetch
// counts alongside — and, when the result carries a trace (ExecTrace),
// the span tree under it.
func (p *Prepared) Explain(res *exec.Result) string {
	pl := p.state.Load().pl
	opts := plan.ExplainOptions{Estimates: pl.CostBased}
	if res != nil {
		opts.Actuals = &plan.Actuals{Steps: res.StepStats, Verifies: res.VerifyStats}
		opts.Limit = res.Limit
		opts.Limited = res.Limited
		opts.Trace = res.Trace
	}
	return pl.ExplainOpts(opts)
}

// NumParams returns the number of placeholder slots Exec expects.
func (p *Prepared) NumParams() int { return len(p.state.Load().slots) }

// Exec runs the prepared plan with the given placeholder arguments (in
// placeholder order), returning the bounded-evaluation result. The only
// per-request work is binding the arguments into the plan's seeds and the
// bounded data access itself. Each call pins one view from the engine's
// source — for a live engine, the snapshot current at call time — so the
// evaluation is isolated from concurrent writes.
func (p *Prepared) Exec(args ...value.Value) (*exec.Result, error) {
	return p.ExecOn(p.eng.src.View(), args...)
}

// ExecOn is Exec against an explicitly pinned store: a sealed database or
// a live snapshot the caller holds. Use it to answer several queries from
// one consistent epoch, or to re-evaluate on a historical snapshot.
func (p *Prepared) ExecOn(st exec.Store, args ...value.Value) (*exec.Result, error) {
	return p.execOn(st, nil, nil, args)
}

// ExecTrace is Exec with per-query tracing: the evaluation's waves, fetch
// steps, per-shard probes and verifications are recorded as a span tree
// under tr's root, and the result carries the trace (rendered by Explain).
// A nil tr behaves like Exec.
func (p *Prepared) ExecTrace(tr *obs.Trace, args ...value.Value) (*exec.Result, error) {
	return p.execOn(p.eng.src.View(), tr, nil, args)
}

// ExecReadOn is ExecTrace against an explicitly pinned store that also
// records into reads, when non-nil, the version words of everything the
// execution reads (exec.StreamOptions.Reads): the lineage a result cache
// keeps the answer by. An unsatisfiable binding reads nothing and records
// nothing.
func (p *Prepared) ExecReadOn(st exec.Store, tr *obs.Trace, reads *exec.ReadSet, args ...value.Value) (*exec.Result, error) {
	return p.execOn(st, tr, reads, args)
}

// execOn is the shared buffered execution path: bind, then drain an
// unbatched stream carrying the engine's executor metrics (and the
// caller's trace, if any) — byte-identical to the classic evalDQ run.
// Each drain's wall time feeds the tail-sampling recorder's rolling-p99
// window when one is wired (Options.Recorder).
func (p *Prepared) execOn(st exec.Store, tr *obs.Trace, reads *exec.ReadSet, args []value.Value) (*exec.Result, error) {
	p.eng.execs.Add(1)
	pl, ok, err := p.bind(args)
	if err != nil {
		return nil, err
	}
	if !ok {
		res := p.emptyResult()
		res.Trace = tr
		return res, nil
	}
	opts := exec.StreamOptions{BatchSize: exec.Unbatched, Trace: tr, Metrics: p.eng.execMetrics, Reads: reads}
	rec := p.eng.recorder
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	res, err := exec.OpenStream(pl, st, opts).Drain()
	if rec != nil && err == nil {
		rec.ObserveLatency(time.Since(start))
	}
	return res, err
}

// ExecStream opens a pull-based answer stream for the prepared plan with
// the given placeholder arguments, pinning a view from the engine's
// source at call time (like Exec). No data is fetched until the stream's
// first Next call; with opts.Limit set, fetching stops as soon as that
// many distinct answers exist. The returned stream is single-goroutine;
// hold it (and nothing else) to page through one consistent snapshot.
func (p *Prepared) ExecStream(opts exec.StreamOptions, args ...value.Value) (*exec.Stream, error) {
	return p.ExecStreamOn(p.eng.src.View(), opts, args...)
}

// ExecStreamOn is ExecStream against an explicitly pinned store.
func (p *Prepared) ExecStreamOn(st exec.Store, opts exec.StreamOptions, args ...value.Value) (*exec.Stream, error) {
	p.eng.execs.Add(1)
	if opts.Metrics == nil {
		opts.Metrics = p.eng.execMetrics
	}
	pl, ok, err := p.bind(args)
	if err != nil {
		return nil, err
	}
	if !ok {
		return exec.EmptyStream(p.colNames()), nil
	}
	return exec.OpenStream(pl, st, opts), nil
}

// ExecLimit is Exec with early termination: it drains a limit-bounded
// stream and returns at most limit distinct answers (sorted), with
// Result.StepStats recording the probes the limit saved. limit ≤ 0 means
// no limit, i.e. plain Exec.
func (p *Prepared) ExecLimit(limit int, args ...value.Value) (*exec.Result, error) {
	return p.ExecLimitOn(p.eng.src.View(), limit, args...)
}

// ExecLimitOn is ExecLimit against an explicitly pinned store.
func (p *Prepared) ExecLimitOn(st exec.Store, limit int, args ...value.Value) (*exec.Result, error) {
	if limit <= 0 {
		return p.ExecOn(st, args...)
	}
	s, err := p.ExecStreamOn(st, exec.StreamOptions{Limit: limit}, args...)
	if err != nil {
		return nil, err
	}
	rec := p.eng.recorder
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	res, err := s.Drain()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.ObserveLatency(time.Since(start))
	}
	res.Limit = limit
	return res, nil
}

// bind validates an argument vector and returns the plan to execute:
// the cached plan itself for templates without placeholders, or a copy
// with the placeholder classes' seeds rewritten to the arguments.
// ok = false means the binding is unsatisfiable (conflicting values for
// one Σ_Q class, or a fixed slot given a different constant) — the
// answer is empty without touching the data.
//
// The plan state is loaded exactly once: the plan and the slots that
// bind into it come from the same bundle, so an upgrade installing a new
// plan concurrently can never pair this execution's plan with the other
// plan's class numbering. The returned plan is the caller's own (a copy
// for templates), so streams opened on it keep executing it unchanged —
// open cursors are pinned to the plan they started on.
func (p *Prepared) bind(args []value.Value) (*plan.Plan, bool, error) {
	st := p.state.Load()
	if len(args) != len(st.slots) {
		return nil, false, fmt.Errorf("engine: query %s expects %d arguments, got %d",
			p.query.Name, len(st.slots), len(args))
	}
	for i, a := range args {
		if a.IsNull() {
			return nil, false, fmt.Errorf("engine: argument %d is null; an equality with null is never satisfied", i)
		}
	}
	if len(st.slots) == 0 {
		return st.pl, true, nil
	}

	// Bind: one value per placeholder class. Conflicting bindings — two
	// Σ_Q-equal slots given different values, or a fixed slot given a
	// value other than its pinned constant — make the instantiated query
	// unsatisfiable.
	desired := make(map[int]value.Value, len(st.slots))
	for i, slot := range st.slots {
		if slot.fixed {
			if args[i] != slot.val {
				return nil, false, nil
			}
			continue
		}
		if prev, ok := desired[slot.class]; ok {
			if prev != args[i] {
				return nil, false, nil
			}
			continue
		}
		desired[slot.class] = args[i]
	}

	bound := *st.pl
	seeds := make([]plan.Seed, len(st.pl.Seeds))
	copy(seeds, st.pl.Seeds)
	for i := range seeds {
		if v, ok := desired[seeds[i].Class]; ok {
			seeds[i].Val = v
		}
	}
	bound.Seeds = seeds
	return &bound, true, nil
}

// colNames renders the template's output column names.
func (p *Prepared) colNames() []string {
	var cols []string
	for _, col := range p.query.Output {
		cols = append(cols, col.As)
	}
	return cols
}

// emptyResult is the answer of an unsatisfiable argument binding: no
// tuples, no data access.
func (p *Prepared) emptyResult() *exec.Result {
	return &exec.Result{Cols: p.colNames()}
}
