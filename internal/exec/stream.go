package exec

import (
	"fmt"
	"sort"
	"time"

	"bcq/internal/obs"
	"bcq/internal/plan"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// This file is the pull-based streaming core of evalDQ. A Stream runs the
// same three phases as the classic materializing evaluation — candidate
// growth, per-atom verification, in-memory join — but incrementally, in
// waves of at most BatchSize index probes per plan operation, emitting
// answers as soon as they are provable instead of after the last fetch.
//
// The transformation is sound because bounded evaluation is monotone:
// candidate sets only grow, a row that passes membership and consistency
// checks against a partial candidate set also passes against the final
// one, and a join result over verified rows is a join result over the
// final tables. Any tuple the stream emits is therefore a true answer;
// draining the stream to exhaustion yields exactly the classic result.
//
// Incrementality per phase:
//
//   - growth: each fetch step owns a deltaEnum that enumerates the
//     cross-product lookup box over its X classes' candidate sets as a
//     set of disjoint "new minus old" blocks, so across all waves every
//     combination is probed exactly once — the total probe and fetch
//     counts of a drained stream equal the one-shot run's.
//   - verification: witness retrievals use the same delta enumeration;
//     FromStep collection consumes the source step's recorded probes as
//     they appear. A row whose value is not yet a candidate is parked and
//     rechecked when the candidate sets grow (membership failures are
//     transient; within-atom consistency failures are permanent).
//   - join: semi-naive and indexed. When table t gains ΔR_t in a wave, the
//     wave joins new_{<t} ⋈ ΔR_t ⋈ old_{>t}, which partitions the new join
//     results exactly — no combination is produced twice. Each table keeps
//     persistent hash indexes (join.go) extended with just the wave's new
//     rows; a delta row is joined depth-first through a static, connected
//     table order over one reused class → value binding, the partition
//     enforced by row-number bounds on the index chains. Nothing is
//     materialized between tables, and projected answers dedupe through
//     one output set shared across waves.
//
// Early termination: with Limit > 0 the stream stops — mid-join if need
// be — once that many distinct answers exist, leaving the enumerators'
// remaining combinations unprobed. The per-step count of those known
// saved probes is reported as StepAccess.Skipped.
type Stream struct {
	r    *run
	opts StreamOptions
	// batch is the per-operation probe budget of one wave (< 0: no cap).
	batch int

	retain   []bool
	stepEnum []*deltaEnum
	vst      []*vstate
	// tables are the row tables of non-Exists verifications, in plan
	// order (vstate.tbl points into this slice's elements).
	tables []*streamTable

	// Join state (join.go): bind is the class → value binding the
	// depth-first walk fills in place, pre-set with the seed constants;
	// orders[t] is table t's delta join order, computed on first use;
	// keybuf is the one buffer every key of the stream is encoded into.
	bind   []value.Value
	orders [][]joinStep
	keybuf []byte
	// joinLeaves counts complete join results reached, joinVisits the rows
	// the walk stepped onto — the join's work, for span tags and tests.
	joinLeaves, joinVisits int64

	seenOut keySet
	outbuf  []value.Tuple
	outHead int

	growthDone      bool
	seedOnlyEmitted bool

	// execSpan is the trace span covering the whole evaluation (nil when
	// untraced); waves counts advance calls for span naming. finalized
	// guards the once-per-stream completion bookkeeping (span end,
	// skipped-probe counters).
	execSpan  *obs.Span
	waves     int
	finalized bool

	done    bool
	limited bool
	err     error
}

// StreamOptions tunes one Stream.
type StreamOptions struct {
	// Limit stops the stream after this many distinct answers (≤ 0: no
	// limit). Emitted answers are exact answers; a limited stream simply
	// stops fetching once enough exist.
	Limit int
	// BatchSize caps the index probes one plan operation issues per wave.
	// 0 means DefaultBatchSize; Unbatched (< 0) removes the cap, making a
	// full drain execute exactly like the classic one-pass evaluation.
	BatchSize int
	// Trace, when non-nil, records the evaluation as a span tree: an
	// "exec" span with one child per wave, per-step fetch/verify spans
	// under each wave (shard fan-out spans tagged with the shard index),
	// and a join span. The trace rides out on Result.Trace. Nil disables
	// tracing at near-zero cost (one nil check per site).
	Trace *obs.Trace
	// Metrics, when non-nil, receives the executor's counters and
	// latency histograms (wave duration, probes, tuples fetched/skipped,
	// per-shard probe latency). Nil disables recording.
	Metrics *obs.ExecMetrics
}

// DefaultBatchSize is the wave probe budget when StreamOptions leaves it
// unset: small enough that first answers surface after a few hundred
// fetches, large enough that batched probes still amortize.
const DefaultBatchSize = 64

// Unbatched disables wave batching: each operation drains its pending
// combinations in one wave, so growth completes in a single pass.
const Unbatched = -1

// vstate is the incremental state of one verification.
type vstate struct {
	// enum enumerates witness lookups (nil for Exists and FromStep).
	enum *deltaEnum
	// consumed indexes into the source step's recorded probes (FromStep).
	consumed int
	// tbl is the verification's row table (nil for Exists).
	tbl *streamTable
	// pending holds rows that failed candidate membership; they are
	// rechecked when the row classes' candidate sets grow.
	pending  []pendRow
	pendMark int64
	complete bool
}

type pendRow struct {
	combo value.Tuple
	entry storage.IndexEntry
}

// streamTable is one atom's verified row table R_i, grown incrementally.
type streamTable struct {
	classes []int
	rows    []value.Tuple
	seen    keySet
	// waveBase is len(rows) at the start of the current wave; rows beyond
	// it are the wave's delta.
	waveBase int
	// indexes are the table's join indexes, one per key-column list some
	// delta join order probes it by.
	indexes []*joinIndex
}

// Stream opens a pull-based evaluation of a bounded plan against a store.
// Answers arrive through Next in discovery order; no data is fetched
// until the first Next call, and fetching stops as soon as the buffered
// answers satisfy the caller (or opts.Limit). The stream is not safe for
// concurrent use; the store must satisfy the same requirements as Run's.
func (e *Executor) Stream(p *plan.Plan, db Store, opts StreamOptions) *Stream {
	r := &run{ex: e, p: p, db: db, res: &Result{}, metrics: opts.Metrics}
	s := &Stream{r: r, opts: opts, batch: opts.BatchSize}
	if s.batch == 0 {
		s.batch = DefaultBatchSize
	}
	for _, col := range p.Query.Output {
		r.res.Cols = append(r.res.Cols, col.As)
	}
	if p.Trivial {
		s.done = true
		return s
	}
	r.dq = newDQTracker()
	r.res.StepStats = make([]StepAccess, len(p.Steps))
	r.res.VerifyStats = make([]StepAccess, len(p.Verifies))
	r.V = make([]*candSet, p.Closure.NumClasses())
	for i := range r.V {
		r.V[i] = newCandSet()
	}
	for _, sd := range p.Seeds {
		r.V[sd.Class].add(sd.Val)
	}
	s.retain = make([]bool, len(p.Steps))
	for _, vs := range p.Verifies {
		if vs.FromStep >= 0 {
			s.retain[vs.FromStep] = true
		}
	}
	r.recorded = make([][]fetched, len(p.Steps))
	s.stepEnum = make([]*deltaEnum, len(p.Steps))
	for si, st := range p.Steps {
		s.stepEnum[si] = newDeltaEnum(st.XClasses)
	}
	s.vst = make([]*vstate, len(p.Verifies))
	for vi, vs := range p.Verifies {
		st := &vstate{}
		if !vs.Exists {
			classes := make([]int, len(vs.Row))
			for k, src := range vs.Row {
				classes[k] = src.Class
			}
			st.tbl = &streamTable{classes: classes, seen: keySet{}}
			s.tables = append(s.tables, st.tbl)
			if vs.FromStep < 0 {
				st.enum = newDeltaEnum(vs.XClasses)
			}
		}
		s.vst[vi] = st
	}
	s.seenOut = keySet{}
	return s
}

// Stream opens a sequential stream (see Executor.Stream).
func OpenStream(p *plan.Plan, db Store, opts StreamOptions) *Stream {
	return sequential.Stream(p, db, opts)
}

// EmptyStream returns an exhausted stream carrying only output column
// names — the streaming form of an unsatisfiable binding's empty answer.
// It performs no data access.
func EmptyStream(cols []string) *Stream {
	return &Stream{r: &run{res: &Result{Cols: cols}}, done: true}
}

// Cols returns the output column names (empty for Boolean queries).
func (s *Stream) Cols() []string { return s.r.res.Cols }

// Next returns the next answer tuple. ok = false without an error means
// the stream is exhausted (or its limit was reached); every returned
// tuple is a distinct, final answer of the query.
func (s *Stream) Next() (value.Tuple, bool, error) {
	for s.outHead >= len(s.outbuf) && !s.done && s.err == nil {
		s.advance()
	}
	if s.done || s.err != nil {
		s.finalize()
	}
	if s.err != nil {
		return nil, false, s.err
	}
	if s.outHead < len(s.outbuf) {
		t := s.outbuf[s.outHead]
		s.outHead++
		if s.outHead == len(s.outbuf) {
			s.outbuf, s.outHead = s.outbuf[:0], 0
		}
		return t, true, nil
	}
	return nil, false, nil
}

// Done reports whether the stream has no more answers to produce.
func (s *Stream) Done() bool { return s.done && s.outHead >= len(s.outbuf) }

// Limited reports whether the stream stopped at its answer limit rather
// than by exhausting the evaluation.
func (s *Stream) Limited() bool { return s.limited }

// Close stops the stream. Buffered answers stay readable through Next;
// no further fetching happens. Closing an exhausted stream is a no-op.
func (s *Stream) Close() {
	s.done = true
	s.finalize()
}

// finalize runs the once-per-stream completion bookkeeping: the known
// saved probes land in the skipped counter and the exec span ends with
// its totals. Idempotent; called when the stream concludes (drained,
// limited, errored or closed).
func (s *Stream) finalize() {
	if s.finalized {
		return
	}
	s.finalized = true
	skipped := int64(0)
	for si := range s.stepEnum {
		skipped += s.stepEnum[si].pendingCount()
	}
	for _, st := range s.vst {
		if st.enum != nil {
			skipped += st.enum.pendingCount()
		}
	}
	if m := s.r.metrics; m != nil {
		m.Skipped.Add(skipped)
	}
	if s.execSpan != nil {
		s.execSpan.TagInt("waves", int64(s.waves))
		s.execSpan.TagInt("probes", s.r.lookups)
		s.execSpan.TagInt("fetched", s.r.fetched)
		if s.limited {
			s.execSpan.TagInt("skipped", skipped)
			s.execSpan.Tag("limited", "true")
		}
		s.execSpan.End()
	}
}

// Result snapshots the access statistics accumulated so far: counters,
// |D_Q|, per-step breakdowns (with known saved probes in Skipped when the
// stream stopped early), and the limit disposition. Tuples is left nil —
// the answers flow through Next.
func (s *Stream) Result() *Result {
	res := &Result{
		Cols:    s.r.res.Cols,
		Stats:   storage.Stats{IndexLookups: s.r.lookups, TuplesFetched: s.r.fetched},
		Limit:   s.opts.Limit,
		Limited: s.limited,
		Trace:   s.opts.Trace,
	}
	if s.r.dq != nil {
		res.DQSize = s.r.dq.size()
	}
	if s.r.res.StepStats != nil {
		res.StepStats = append([]StepAccess(nil), s.r.res.StepStats...)
		for si := range res.StepStats {
			res.StepStats[si].Skipped = s.stepEnum[si].pendingCount()
		}
	}
	if s.r.res.VerifyStats != nil {
		res.VerifyStats = append([]StepAccess(nil), s.r.res.VerifyStats...)
		for vi, st := range s.vst {
			if st.enum != nil {
				res.VerifyStats[vi].Skipped = st.enum.pendingCount()
			}
		}
	}
	return res
}

// Drain consumes the stream to exhaustion (or its limit) and returns the
// materialized result with sorted, deduplicated tuples — the classic
// evalDQ contract.
func (s *Stream) Drain() (*Result, error) {
	var tuples []value.Tuple
	for {
		t, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tuples = append(tuples, t)
	}
	res := s.Result()
	res.Tuples = tuples
	sort.Slice(res.Tuples, func(i, j int) bool { return res.Tuples[i].Compare(res.Tuples[j]) < 0 })
	return res, nil
}

// advance runs one wave: a bounded slice of growth, verification in plan
// order, then the semi-naive join of the wave's table deltas. It either
// makes progress (probes issued, rows added, answers emitted) or
// concludes the evaluation. When the stream is traced each wave is a
// span with per-step fetch/verify children; when metrics are wired the
// wave's duration lands in the wave histogram.
func (s *Stream) advance() {
	s.waves++
	var waveStart time.Time
	if s.r.metrics != nil {
		waveStart = time.Now()
	}
	var waveSpan *obs.Span
	if s.opts.Trace != nil {
		if s.execSpan == nil {
			s.execSpan = s.opts.Trace.StartSpan("exec")
		}
		waveSpan = s.execSpan.Child(fmt.Sprintf("wave %d", s.waves))
	}
	defer func() {
		waveSpan.End()
		if s.r.metrics != nil {
			s.r.metrics.WaveSeconds.Observe(time.Since(waveStart).Seconds())
		}
		if s.done || s.err != nil {
			s.finalize()
		}
	}()

	for _, tbl := range s.tables {
		tbl.waveBase = len(tbl.rows)
	}

	progress := false
	if !s.growthDone {
		for si := range s.r.p.Steps {
			en := s.stepEnum[si]
			en.refresh(s.r.V)
			xs := en.next(s.r.V, s.batch)
			if len(xs) == 0 {
				continue
			}
			progress = true
			if err := s.growStep(si, xs, waveSpan); err != nil {
				s.err = err
				return
			}
		}
		// Fixpoint check at the wave's final candidate sets. Plans are
		// feed-forward (each class is written by the seeds or exactly one
		// step, ordered before every use), so once every enumerator is
		// empty no later wave can revive one.
		allDone := true
		for si := range s.r.p.Steps {
			s.stepEnum[si].refresh(s.r.V)
			if !s.stepEnum[si].empty() {
				allDone = false
			}
		}
		s.growthDone = allDone
	}

	for vi := range s.r.p.Verifies {
		adv, err := s.advanceVerify(vi, waveSpan)
		if err != nil {
			s.err = err
			return
		}
		if s.done {
			return // a gate failed or a table verified empty
		}
		if adv {
			progress = true
		}
	}

	joinSpan := waveSpan.Child("join")
	leaves := s.joinLeaves
	emitted, err := s.emitWave()
	if joinSpan != nil {
		deltaRows := 0
		for _, tbl := range s.tables {
			deltaRows += len(tbl.rows) - tbl.waveBase
		}
		joinSpan.TagInt("delta_rows", int64(deltaRows)).TagInt("results", s.joinLeaves-leaves)
		joinSpan.End()
	}
	if err != nil {
		s.err = err
		return
	}
	if emitted {
		progress = true
	}
	if s.done {
		return // limit reached mid-join
	}
	if !progress {
		s.done = true // exhausted: nothing pending anywhere
	}
}

// growStep integrates one batch of a fetch step's probes, mirroring the
// classic growth phase: count, track D_Q, bind Y values into candidate
// sets, record for FromStep collectors.
func (s *Stream) growStep(si int, xs []value.Tuple, waveSpan *obs.Span) error {
	st := s.r.p.Steps[si]
	var sp *obs.Span
	if waveSpan != nil {
		sp = waveSpan.Child(fmt.Sprintf("fetch T%d: %s via %s", si+1, s.r.p.Query.Atoms[st.Atom].Alias, st.AC))
	}
	before := s.r.fetched
	groups, owners, err := s.r.probeAC(st.AC, xs, sp)
	if sp != nil {
		sp.TagInt("probes", int64(len(xs))).TagInt("fetched", s.r.fetched-before)
		sp.End()
	}
	if err != nil {
		return err
	}
	s.r.res.StepStats[si].Lookups += int64(len(xs))
	for i, entries := range groups {
		s.r.res.StepStats[si].Fetched += int64(len(entries))
		shard := 0
		if owners != nil {
			shard = owners[i]
		}
		for _, e := range entries {
			s.r.dq.add(st.AC.Rel, shard, e.Pos)
			for _, yi := range st.BindPos {
				s.r.V[st.YClasses[yi]].add(e.Y[yi])
			}
		}
		if s.retain[si] && len(entries) > 0 {
			s.r.recorded[si] = append(s.r.recorded[si], fetched{combo: xs[i], entries: entries, shard: shard})
		}
	}
	return nil
}

// advanceVerify moves one verification forward by up to a batch of work
// and, once the verification is complete, judges emptiness — an empty
// verified table at exhaustion means the whole answer is empty, matching
// the classic short-circuit.
func (s *Stream) advanceVerify(vi int, waveSpan *obs.Span) (bool, error) {
	st := s.vst[vi]
	if st.complete {
		return false, nil
	}
	vs := s.r.p.Verifies[vi]
	var sp *obs.Span
	if waveSpan != nil {
		sp = waveSpan.Child(fmt.Sprintf("verify %s", s.r.p.Query.Atoms[vs.Atom].Alias))
		defer sp.End()
	}
	if vs.Exists {
		ok, err := s.r.db.NonEmpty(s.r.p.Query.Atoms[vs.Atom].Rel)
		if err != nil {
			return false, err
		}
		if !ok {
			s.finishEmpty()
			return true, nil
		}
		s.r.fetched++ // the O(1) existence check read one tuple
		s.r.res.VerifyStats[vi].Fetched = 1
		st.complete = true
		return true, nil
	}

	progress := false
	if vs.FromStep >= 0 {
		recs := s.r.recorded[vs.FromStep]
		for st.consumed < len(recs) {
			f := recs[st.consumed]
			st.consumed++
			progress = true
			for _, e := range f.entries {
				s.offerRow(vi, st, f.combo, e)
			}
		}
	} else {
		st.enum.refresh(s.r.V)
		xs := st.enum.next(s.r.V, s.batch)
		if len(xs) > 0 {
			progress = true
			groups, owners, err := s.r.probeAC(vs.Witness, xs, sp)
			if err != nil {
				return false, err
			}
			sp.TagInt("probes", int64(len(xs)))
			s.r.res.VerifyStats[vi].Lookups += int64(len(xs))
			for i, entries := range groups {
				s.r.res.VerifyStats[vi].Fetched += int64(len(entries))
				shard := 0
				if owners != nil {
					shard = owners[i]
				}
				for _, e := range entries {
					s.r.dq.add(vs.Witness.Rel, shard, e.Pos)
					s.offerRow(vi, st, xs[i], e)
				}
			}
		}
	}

	// Recheck parked rows when the candidate sets behind them have grown.
	if len(st.pending) > 0 {
		if mark := s.candMark(vs); mark != st.pendMark {
			st.pendMark = mark
			keep := st.pending[:0]
			for _, pr := range st.pending {
				if s.memberRow(vs, pr.combo, pr.entry) {
					s.addRow(st, vs, pr.combo, pr.entry)
					progress = true
				} else {
					keep = append(keep, pr)
				}
			}
			st.pending = keep
		}
	}

	if s.growthDone && s.verifyDrained(vi, st) {
		// Candidate sets are final: parked rows can never pass now.
		st.pending = nil
		st.complete = true
		if len(st.tbl.rows) == 0 {
			s.finishEmpty()
		}
	}
	return progress, nil
}

// verifyDrained reports whether a row-table verification has consumed
// every available input.
func (s *Stream) verifyDrained(vi int, st *vstate) bool {
	vs := s.r.p.Verifies[vi]
	if vs.FromStep >= 0 {
		return st.consumed == len(s.r.recorded[vs.FromStep])
	}
	st.enum.refresh(s.r.V)
	return st.enum.empty()
}

// candMark fingerprints the sizes of the candidate sets a verification's
// row values are checked against; parked rows are rechecked only when it
// moves.
func (s *Stream) candMark(vs plan.VerifyStep) int64 {
	var n int64
	for _, src := range vs.Row {
		n += int64(len(s.r.V[src.Class].vals))
	}
	return n
}

// offerRow considers one fetched entry as a row of its table. Consistency
// failures are permanent (the values are fixed in the entry); membership
// failures park the entry for recheck after the candidate sets grow.
func (s *Stream) offerRow(vi int, st *vstate, combo value.Tuple, e storage.IndexEntry) {
	vs := s.r.p.Verifies[vi]
	for k := 0; k+1 < len(vs.Consistency); k += 2 {
		if rowValue(vs.Consistency[k], combo, e) != rowValue(vs.Consistency[k+1], combo, e) {
			return
		}
	}
	if s.memberRow(vs, combo, e) {
		s.addRow(st, vs, combo, e)
		return
	}
	st.pending = append(st.pending, pendRow{combo: combo, entry: e})
}

// rowValue reads one row column from its source: the lookup combo or the
// fetched entry.
func rowValue(src plan.RowSource, combo value.Tuple, e storage.IndexEntry) value.Value {
	if src.FromX >= 0 {
		return combo[src.FromX]
	}
	return e.Y[src.FromY]
}

// memberRow reports whether every value of the entry's row is a candidate
// of its class (consistency is the caller's, checked once — it never
// changes).
func (s *Stream) memberRow(vs plan.VerifyStep, combo value.Tuple, e storage.IndexEntry) bool {
	for _, src := range vs.Row {
		if !s.r.V[src.Class].has[rowValue(src, combo, e)] {
			return false
		}
	}
	return true
}

// addRow appends the entry's verified row to its table unless the table
// already has it; only a new row is materialized.
func (s *Stream) addRow(st *vstate, vs plan.VerifyStep, combo value.Tuple, e storage.IndexEntry) {
	buf := s.keybuf[:0]
	for _, src := range vs.Row {
		buf = rowValue(src, combo, e).AppendKey(buf)
	}
	s.keybuf = buf
	if !st.tbl.seen.insert(buf) {
		return
	}
	row := make(value.Tuple, len(vs.Row))
	for k, src := range vs.Row {
		row[k] = rowValue(src, combo, e)
	}
	st.tbl.rows = append(st.tbl.rows, row)
}

// emitWave joins the wave's table deltas semi-naively, in table order,
// and reports whether a new distinct answer was emitted.
func (s *Stream) emitWave() (bool, error) {
	before := len(s.seenOut)
	if s.bind == nil {
		s.bind = make([]value.Value, s.r.p.Closure.NumClasses())
		for _, sd := range s.r.p.Seeds {
			s.bind[sd.Class] = sd.Val
		}
	}
	if len(s.tables) == 0 {
		// Every verification is an existence gate; once all have passed,
		// the join is the seed tuple alone.
		if s.seedOnlyEmitted || !s.allComplete() {
			return false, nil
		}
		s.seedOnlyEmitted = true
		for _, c := range s.r.p.OutputClasses {
			if !s.seeded(c) {
				return false, fmt.Errorf("exec: output class %d never joined (malformed plan)", c)
			}
		}
		s.joinLeaves++
		s.project()
		return true, nil
	}
	for t, tbl := range s.tables {
		if len(tbl.rows) == tbl.waveBase {
			continue
		}
		if err := s.joinDelta(t); err != nil {
			return false, err
		}
		if s.done {
			break
		}
	}
	return len(s.seenOut) > before, nil
}

// seeded reports whether a seed constant pins the class.
func (s *Stream) seeded(class int) bool {
	for _, sd := range s.r.p.Seeds {
		if sd.Class == class {
			return true
		}
	}
	return false
}

func (s *Stream) allComplete() bool {
	for _, st := range s.vst {
		if !st.complete {
			return false
		}
	}
	return true
}

// finishEmpty concludes the evaluation with an empty answer (a gate
// failed or a verified table is empty at exhaustion).
func (s *Stream) finishEmpty() {
	s.done = true
}
