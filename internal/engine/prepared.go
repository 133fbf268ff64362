package engine

import (
	"fmt"
	"slices"
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
// planning happens. A Prepared's plan never changes after build (a drift
// re-plan builds a new Prepared), so it is safe for concurrent Exec from
// many goroutines.
type Prepared struct {
	eng *Engine
	// query is the validated template (placeholders unbound) and fp its
	// fingerprint, the key this Prepared was cached under.
	query *spc.Query
	fp    string
	// pl is the cached plan: the template's own plan when it has no
	// placeholders, otherwise the sentinel-instantiated plan.
	pl *plan.Plan
	// slots aligns with query.Placeholders: how each positional argument
	// reaches this plan (classes are in pl's closure numbering).
	slots []paramSlot
	// shapes aligns with pl.Probed, the access constraints the plan probes
	// (fetch steps and retrieval witnesses): the quantized cards the plan
	// was costed against, key by key — what the statistics fingerprint
	// renders. A cache hit whose source no longer shows those shapes
	// triggers a re-plan (see Engine.current).
	shapes []stats.Shape
	// verifiedAt is the source epoch at which shapes were last seen to
	// match the store's statistics (Engine.current) — the one mutable
	// field, a memo of a check and no part of the plan.
	verifiedAt atomic.Uint64
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
// (for templates), analysis, the cost-based optimizer, and the shapes of
// the cards the optimizer costed the plan against (no statistics
// snapshot). The access schema is read by lookupOrBuild, after the
// version that tags a cached failure.
func (e *Engine) build(pt parsedText, acc *schema.AccessSchema) (*Prepared, error) {
	an, slots, err := e.analyze(pt.q, acc)
	if err != nil {
		return nil, err
	}
	// Epoch before statistics, like every reader of the pair: a commit
	// landing mid-build leaves the older epoch, so the next hit re-checks.
	epoch := e.src.Epoch()
	pl, err := plan.Optimize(an, e.src)
	if err != nil {
		return nil, err
	}
	shapes := make([]stats.Shape, len(pl.Probed))
	for i, pc := range pl.Probed {
		shapes[i] = stats.ShapeOf(pc.Card, pc.OK)
	}
	p := &Prepared{eng: e, query: pt.q, fp: pt.fp, pl: pl, slots: slots, shapes: shapes}
	p.verifiedAt.Store(epoch)
	return p, nil
}

// analyze builds the query's closure — for a template, instantiated with
// a sentinel per placeholder class — and analyzes it: constraint
// actualization and the per-atom tables. It returns the analysis and the
// placeholder slots, keyed to its class numbering, which instantiation
// leaves as it was.
func (e *Engine) analyze(q *spc.Query, acc *schema.AccessSchema) (*core.Analysis, []paramSlot, error) {
	cl, err := spc.NewClosure(q, e.cat)
	if err != nil {
		return nil, nil, err
	}
	var slots []paramSlot
	if len(q.Placeholders) > 0 {
		bindings := make(map[spc.AttrRef]value.Value, len(q.Placeholders))
		slots = make([]paramSlot, 0, len(q.Placeholders))
		classes := 0 // distinct Σ_Q classes among the slots so far
		for k, ref := range q.Placeholders {
			c := cl.SlotClass(k)
			// One value per class: a later slot of a class takes the first
			// one's.
			var slot paramSlot
			if j := slices.IndexFunc(slots, func(s paramSlot) bool { return s.class == c }); j >= 0 {
				slot = slots[j]
			} else {
				if cv, pinned := cl.ConstOf(c); pinned {
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
		if cl, err = cl.Instantiate(bindings); err != nil {
			return nil, nil, err
		}
	}
	an, err := core.Analyze(cl, acc)
	if err != nil {
		return nil, nil, err
	}
	return an, slots, nil
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

// Plan returns the prepared plan. For a parameterized template the seed
// values of placeholder classes are opaque sentinels; everything else —
// steps, verifications, bounds — is exactly what every execution runs.
func (p *Prepared) Plan() *plan.Plan { return p.pl }

// FetchBound is the plan's worst-case data access, the paper's M.
func (p *Prepared) FetchBound() deduce.Bound { return p.pl.FetchBound }

// EstFetch is the cost model's expected tuples fetched, from the
// cardinality statistics current when the plan was generated.
func (p *Prepared) EstFetch() float64 { return p.pl.EstFetch }

// StatsFingerprint is the quantized cardinality fingerprint the plan was
// costed against; the plan cache re-plans when the store's current
// fingerprint for the same constraints differs.
func (p *Prepared) StatsFingerprint() string {
	keys := make([]string, len(p.pl.Probed))
	for i, pc := range p.pl.Probed {
		keys[i] = pc.Key
	}
	return stats.Render(keys, p.shapes)
}

// Explain renders the prepared plan with its cost estimates; pass a
// Result from Exec to print each step's actual probe and fetch counts
// alongside — and, when the result carries a trace (ExecTrace),
// the span tree under it.
func (p *Prepared) Explain(res *exec.Result) string {
	pl := p.pl
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
func (p *Prepared) NumParams() int { return len(p.slots) }

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
// The returned plan is the
// caller's own (a copy for templates), so streams opened on it keep
// executing it unchanged — open cursors are pinned to the plan they
// started on.
func (p *Prepared) bind(args []value.Value) (*plan.Plan, bool, error) {
	if len(args) != len(p.slots) {
		return nil, false, fmt.Errorf("engine: query %s expects %d arguments, got %d",
			p.query.Name, len(p.slots), len(args))
	}
	for i, a := range args {
		if a.IsNull() {
			return nil, false, fmt.Errorf("engine: argument %d is null; an equality with null is never satisfied", i)
		}
	}
	if len(p.slots) == 0 {
		return p.pl, true, nil
	}

	// Bind: one value per placeholder class. Conflicting bindings — two
	// Σ_Q-equal slots given different values, or a fixed slot given a
	// value other than its pinned constant — make the instantiated query
	// unsatisfiable.
	desired := make(map[int]value.Value, len(p.slots))
	for i, slot := range p.slots {
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

	bound := *p.pl
	seeds := make([]plan.Seed, len(p.pl.Seeds))
	copy(seeds, p.pl.Seeds)
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
