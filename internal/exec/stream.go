package exec

import (
	"fmt"
	"slices"
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
//     FromStep collection reads the entries the source step recorded
//     earlier in the same wave. A row whose value is not yet a candidate is parked and
//     rechecked when the candidate sets grow (membership failures are
//     transient; within-atom consistency failures are permanent).
//   - join: semi-naive and indexed. When table t gains ΔR_t in a wave, the
//     wave joins new_{<t} ⋈ ΔR_t ⋈ old_{>t}, which partitions the new join
//     results exactly — no combination is produced twice. Each table keeps
//     persistent indexes (join.go) extended with just the wave's new
//     rows; a delta row is joined depth-first through a static, connected
//     table order over one reused class → id binding, the partition
//     enforced by row-number bounds on the index chains. Nothing is
//     materialized between tables, and projected answers dedupe through
//     one output set shared across waves.
//
// All of this state is id-encoded (ids.go): a value is interned once, when
// the stream first reads it, and everything after that — membership,
// deduplication, joining — is integer work over flat arrays, which a
// finished stream leaves in a pool for the next one (state.go).
//
// Early termination: with Limit > 0 the stream stops — mid-join if need
// be — once that many distinct answers exist, leaving the enumerators'
// remaining combinations unprobed. The per-step count of those known
// saved probes is reported as StepAccess.Skipped.
type Stream struct {
	r    run
	opts StreamOptions
	// batch is the per-operation probe budget of one wave (< 0: no cap).
	batch int

	// The id-encoded evaluation state (state.go): taken from a pool when
	// the stream opens, handed back — and nil from then on — once the
	// stream has concluded and its last answer is out (release). A stream
	// that never evaluates (a trivial plan, EmptyStream) has none.
	*streamState

	// joinLeaves counts complete join results reached, joinVisits the rows
	// the walk stepped onto — the join's work, for span tags and tests.
	joinLeaves, joinVisits int64

	// outHead counts the answers (rows of seenOut, in discovery order)
	// already handed out by Next.
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
	// Reads, when non-nil and the store is Versioned, collects the version
	// words of every group the stream probes and every relation whose
	// emptiness it checks — the lineage a result cache keeps an answer by.
	// Nil records nothing.
	Reads *ReadSet
}

// DefaultBatchSize is the wave probe budget when StreamOptions leaves it
// unset: small enough that first answers surface after a few hundred
// fetches, large enough that batched probes still amortize.
const DefaultBatchSize = 64

// Unbatched disables wave batching: each operation drains its pending
// combinations in one wave, so growth completes in a single pass.
const Unbatched = -1

// stepState is the per-stream state of one fetch step.
type stepState struct {
	// rel is the step's relation in D_Q keys (dqKey).
	rel int
	// yUse marks the Y positions interned for each fetched entry: those the
	// step binds and those a collecting verification reads (yUsed).
	yUse uint64
	// retain is set when some verification collects its rows from this
	// step's entries. Stream.recs[recLo:recHi] then records the entries the
	// current wave fetched as ids — the probe's X-combo followed by the
	// entry's Y columns, len(X)+len(Y) words each. Collectors run later in
	// the same wave and read all of it, so the next wave starts recs over.
	retain       bool
	recLo, recHi int
}

// vstate is the incremental state of one verification.
type vstate struct {
	// enum enumerates witness lookups (nil for Exists and FromStep); rel
	// and yUse are the witness's D_Q relation and the Y positions the
	// verification reads.
	enum *deltaEnum
	rel  int
	yUse uint64
	// tbl is the verification's row table (nil for Exists).
	tbl *streamTable
	// pending holds rows (ids, one per table column) that failed candidate
	// membership; they are rechecked when the row classes' candidate sets
	// grow.
	pending  []uint32
	pendMark int64
	complete bool
}

// streamTable is one atom's verified row table R_i, grown incrementally:
// a set of id rows, one column per class.
type streamTable struct {
	rowSet
	classes []int
	// waveBase is the number of rows at the start of the current wave;
	// rows beyond it are the wave's delta.
	waveBase int
	// indexes are the table's join indexes, one per key-column list some
	// delta join order probes it by.
	indexes []*joinIndex
}

// yUsed reports whether Y position yi is in the mask; positions past the
// mask's width always are.
func yUsed(mask uint64, yi int) bool { return yi >= 64 || mask>>yi&1 != 0 }

// useY adds Y position yi to the mask.
func useY(mask *uint64, yi int) {
	if yi < 64 {
		*mask |= 1 << yi
	}
}

// useSources adds the Y positions the row sources read to the mask.
func useSources(mask *uint64, srcs []plan.RowSource) {
	for _, src := range srcs {
		if src.FromX < 0 {
			useY(mask, src.FromY)
		}
	}
}

// OpenStream opens a pull-based evaluation of a bounded plan against a store.
// Answers arrive through Next in discovery order; no data is fetched
// until the first Next call, and fetching stops as soon as the buffered
// answers satisfy the caller (or opts.Limit). The stream is not safe for
// concurrent use; the store must satisfy the same requirements as Run's.
func OpenStream(p *plan.Plan, db Store, opts StreamOptions) *Stream {
	s := &Stream{r: run{p: p, db: db, metrics: opts.Metrics}, opts: opts, batch: opts.BatchSize}
	r := &s.r
	if vs, ok := db.(Versioned); ok && opts.Reads != nil {
		r.reads, r.versioned = opts.Reads, vs
	}
	if s.batch == 0 {
		s.batch = DefaultBatchSize
	}
	if len(p.Query.Output) > 0 {
		r.cols = make([]string, len(p.Query.Output))
		for i, col := range p.Query.Output {
			r.cols[i] = col.As
		}
	}
	if p.Trivial {
		s.done = true
		return s
	}
	if ps, ok := db.(PartitionedStore); ok && ps.NumShards() > 1<<dqShardBits {
		s.err = fmt.Errorf("exec: %d shards, D_Q accounting addresses at most %d", ps.NumShards(), 1<<dqShardBits)
		return s
	}
	stats := make([]StepAccess, len(p.Steps)+len(p.Verifies))
	r.stepStats, r.verifyStats = stats[:len(p.Steps):len(p.Steps)], stats[len(p.Steps):]
	s.streamState = statePool.Get().(*streamState)
	if rels := s.shape(p); rels >= 1<<dqRelBits {
		s.err = fmt.Errorf("exec: plan fetches from %d relations, D_Q accounting addresses fewer than %d", rels, 1<<dqRelBits)
	}
	return s
}

// EmptyStream returns an exhausted stream carrying only output column
// names — the streaming form of an unsatisfiable binding's empty answer.
// It performs no data access.
func EmptyStream(cols []string) *Stream {
	return &Stream{r: run{cols: cols}, done: true}
}

// Cols returns the output column names (empty for Boolean queries).
func (s *Stream) Cols() []string { return s.r.cols }

// Next returns the next answer tuple. It writes the answer's values into
// buf's array when that has room for them, into a fresh tuple otherwise:
// a caller that is done with each answer before it pulls the next passes
// one buffer for the whole stream (Next(buf...)), and a tuple from Next()
// stays valid for as long as its caller keeps it. (A Boolean answer is
// the empty tuple, not nil.) ok = false without an error means the stream
// is exhausted (or its limit was reached); every returned tuple is a
// distinct, final answer of the query.
func (s *Stream) Next(buf ...value.Value) (value.Tuple, bool, error) {
	if s.ready() == 0 {
		return nil, false, s.err
	}
	ids := s.seenOut.row(s.outHead)
	if cap(buf) < len(ids) || buf == nil {
		buf = make([]value.Value, len(ids))
	}
	tu := buf[:len(ids)]
	for k, id := range ids {
		tu[k] = s.dict.value(id)
	}
	s.outHead++
	if s.Done() {
		s.release()
	}
	return tu, true, nil
}

// ready advances the stream until an answer waits or it concludes, and
// returns the number of answers waiting (0 once it has concluded, or
// failed: then s.err says why).
func (s *Stream) ready() int {
	for !s.done && s.err == nil && s.waiting() == 0 {
		s.advance()
	}
	if s.done || s.err != nil {
		s.finalize()
	}
	waiting := s.waiting()
	if s.err != nil || waiting == 0 {
		s.release()
		return 0
	}
	return waiting
}

// waiting is the number of answers found and not yet handed out.
func (s *Stream) waiting() int {
	if s.streamState == nil {
		return 0
	}
	return s.seenOut.n - s.outHead
}

// Done reports whether the stream has no more answers to produce.
func (s *Stream) Done() bool { return s.done && s.waiting() == 0 }

// Limited reports whether the stream stopped at its answer limit rather
// than by exhausting the evaluation.
func (s *Stream) Limited() bool { return s.limited }

// Close stops the stream. Buffered answers stay readable through Next;
// no further fetching happens. Closing an exhausted stream is a no-op.
func (s *Stream) Close() {
	s.done = true
	s.finalize()
	if s.Done() {
		s.release()
	}
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
	s.settle()
	skipped := int64(0)
	for _, st := range s.r.stepStats {
		skipped += st.Skipped
	}
	for _, st := range s.r.verifyStats {
		skipped += st.Skipped
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

// settle copies what Result reports off the evaluation state — |D_Q| and
// each operation's known saved probes — into the run's own counters.
func (s *Stream) settle() {
	if s.streamState == nil {
		return
	}
	s.r.dqSize = s.dq.n
	for si := range s.r.stepStats {
		s.r.stepStats[si].Skipped = s.enums[si].pendingCount()
	}
	for vi := range s.vst {
		if en := s.vst[vi].enum; en != nil {
			s.r.verifyStats[vi].Skipped = en.pendingCount()
		}
	}
}

// release hands the evaluation state back to the pool. It runs once the
// stream has concluded and nothing of the state can be asked for again:
// the last answer is out and the counters are settled.
func (s *Stream) release() {
	if s.streamState == nil {
		return
	}
	s.settle()
	st := s.streamState
	s.streamState = nil
	st.reset()
	statePool.Put(st)
}

// Result snapshots the access statistics accumulated so far: counters,
// |D_Q|, per-step breakdowns (with known saved probes in Skipped when the
// stream stopped early), and the limit disposition. Tuples is left nil —
// the answers flow through Next.
func (s *Stream) Result() *Result {
	s.settle()
	return &Result{
		Cols:        s.r.cols,
		Stats:       storage.Stats{IndexLookups: s.r.lookups, TuplesFetched: s.r.fetched},
		DQSize:      s.r.dqSize,
		StepStats:   slices.Clone(s.r.stepStats),
		VerifyStats: slices.Clone(s.r.verifyStats),
		Limit:       s.opts.Limit,
		Limited:     s.limited,
		Trace:       s.opts.Trace,
	}
}

// Drain consumes the stream to exhaustion (or its limit) and returns the
// materialized result with sorted, deduplicated tuples — the classic
// evalDQ contract. The answers are cut from slabs sized for the answers
// waiting at each wave, so a drain costs a few allocations per wave
// rather than one per answer.
func (s *Stream) Drain() (*Result, error) {
	var (
		tuples []value.Tuple
		slab   []value.Value
	)
	for {
		waiting := s.ready()
		if s.err != nil {
			return nil, s.err
		}
		if waiting == 0 {
			break
		}
		if len(tuples) == cap(tuples) {
			// Room for the answers already waiting, not a doubling at a time.
			tuples = slices.Grow(tuples, waiting)
		}
		w := len(s.seenOut.row(s.outHead))
		if len(slab) < w || slab == nil {
			slab = make([]value.Value, w*min(waiting, maxSlabTuples))
		}
		t, _, _ := s.Next(slab[:0:w]...) // an answer waits: no error, no end
		slab = slab[w:]
		tuples = append(tuples, t)
	}
	res := s.Result()
	res.Tuples = tuples
	sort.Slice(res.Tuples, func(i, j int) bool { return res.Tuples[i].Compare(res.Tuples[j]) < 0 })
	return res, nil
}

// maxSlabTuples caps the answer tuples Drain cuts from one allocation.
const maxSlabTuples = 256

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

	for t := range s.tables {
		s.tables[t].waveBase = s.tables[t].n
	}
	s.recs = s.recs[:0]
	for si := range s.steps {
		s.steps[si].recLo, s.steps[si].recHi = 0, 0
	}

	progress := false
	if !s.growthDone {
		for si := range s.r.p.Steps {
			en := &s.enums[si]
			en.refresh(s.V)
			var n int
			s.xids, n = en.next(s.V, s.batch, s.xids)
			if n == 0 {
				continue
			}
			progress = true
			if err := s.growStep(si, n, waveSpan); err != nil {
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
			s.enums[si].refresh(s.V)
			if !s.enums[si].empty() {
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
		for t := range s.tables {
			deltaRows += s.tables[t].n - s.tables[t].waveBase
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

// combos turns the n id combinations of width k that an enumerator left in
// xids into the value tuples a store probe takes, cut from the arena.
func (s *Stream) combos(n, k int) []value.Tuple {
	s.xvals = slices.Grow(s.xvals[:0], n*k)[:n*k]
	s.xs = slices.Grow(s.xs[:0], n)[:n]
	for i, id := range s.xids {
		s.xvals[i] = s.dict.value(id)
	}
	for i := range s.xs {
		s.xs[i] = s.xvals[i*k : (i+1)*k : (i+1)*k]
	}
	return s.xs
}

// trackDQ books one fetched entry into D_Q.
func (s *Stream) trackDQ(rel, shard, pos int) error {
	if uint64(pos)>>dqPosBits != 0 {
		return fmt.Errorf("exec: index entry position %d outside D_Q accounting's %d bits", pos, dqPosBits)
	}
	s.dq.add(dqKey(rel, shard, pos))
	return nil
}

// internY interns the masked Y columns of one entry into ybuf. An entry is
// its witness tuple; yPos — the plan's, aligned with the constraint's Y —
// says where in it each Y column sits.
func (s *Stream) internY(e storage.IndexEntry, yPos []int, mask uint64) []uint32 {
	y := s.ybuf[:len(yPos)]
	for yi, p := range yPos {
		if yUsed(mask, yi) {
			y[yi] = s.dict.intern(e.Witness()[p])
		}
	}
	return y
}

// growStep integrates one batch of a fetch step's probes — the n combos in
// xids — mirroring the classic growth phase: count, track D_Q, bind Y
// values into candidate sets, record for FromStep collectors.
func (s *Stream) growStep(si, n int, waveSpan *obs.Span) error {
	st := &s.r.p.Steps[si]
	ss := &s.steps[si]
	nx := len(st.XClasses)
	xs := s.combos(n, nx)
	var sp *obs.Span
	if waveSpan != nil {
		sp = waveSpan.Child(fmt.Sprintf("fetch T%d: %s via %s", si+1, s.r.p.Query.Atoms[st.Atom].Alias, st.AC))
	}
	before := s.r.fetched
	groups, owners, err := s.r.probeAC(st.AC, xs, sp)
	if sp != nil {
		sp.TagInt("probes", int64(n)).TagInt("fetched", s.r.fetched-before)
		sp.End()
	}
	if err != nil {
		return err
	}
	s.r.stepStats[si].Lookups += int64(n)
	ss.recLo = len(s.recs)
	for i, entries := range groups {
		s.r.stepStats[si].Fetched += int64(len(entries))
		shard := 0
		if owners != nil {
			shard = owners[i]
		}
		for _, e := range entries {
			if err := s.trackDQ(ss.rel, shard, e.Pos()); err != nil {
				return err
			}
			y := s.internY(e, st.YPos, ss.yUse)
			for _, yi := range st.BindPos {
				s.V[st.YClasses[yi]].add(y[yi])
			}
			if ss.retain {
				s.recs = append(append(s.recs, s.xids[i*nx:(i+1)*nx]...), y...)
			}
		}
	}
	ss.recHi = len(s.recs)
	return nil
}

// advanceVerify moves one verification forward by up to a batch of work
// and, once the verification is complete, judges emptiness — an empty
// verified table at exhaustion means the whole answer is empty, matching
// the classic short-circuit.
func (s *Stream) advanceVerify(vi int, waveSpan *obs.Span) (bool, error) {
	st := &s.vst[vi]
	if st.complete {
		return false, nil
	}
	vs := &s.r.p.Verifies[vi]
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
		if s.r.reads != nil {
			s.r.recordRel(s.r.p.Query.Atoms[vs.Atom].Rel)
		}
		if !ok {
			s.finishEmpty()
			return true, nil
		}
		s.r.fetched++ // the O(1) existence check read one tuple
		s.r.verifyStats[vi].Fetched = 1
		st.complete = true
		return true, nil
	}

	progress := false
	if vs.FromStep >= 0 {
		recs := s.recs[s.steps[vs.FromStep].recLo:s.steps[vs.FromStep].recHi]
		nx := len(s.r.p.Steps[vs.FromStep].XClasses)
		width := nx + len(s.r.p.Steps[vs.FromStep].AC.Y)
		for at := 0; at < len(recs); at += width {
			progress = true
			s.offerRow(st, vs, recs[at:at+nx], recs[at+nx:at+width])
		}
	} else {
		st.enum.refresh(s.V)
		var n int
		s.xids, n = st.enum.next(s.V, s.batch, s.xids)
		if n > 0 {
			progress = true
			nx := len(vs.XClasses)
			groups, owners, err := s.r.probeAC(vs.Witness, s.combos(n, nx), sp)
			if err != nil {
				return false, err
			}
			sp.TagInt("probes", int64(n))
			s.r.verifyStats[vi].Lookups += int64(n)
			for i, entries := range groups {
				s.r.verifyStats[vi].Fetched += int64(len(entries))
				shard := 0
				if owners != nil {
					shard = owners[i]
				}
				for _, e := range entries {
					if err := s.trackDQ(st.rel, shard, e.Pos()); err != nil {
						return false, err
					}
					s.offerRow(st, vs, s.xids[i*nx:(i+1)*nx], s.internY(e, vs.YPos, st.yUse))
				}
			}
		}
	}

	// Recheck parked rows when the candidate sets behind them have grown.
	if len(st.pending) > 0 {
		if mark := s.candMark(vs); mark != st.pendMark {
			st.pendMark = mark
			width := len(vs.Row)
			keep := st.pending[:0]
			for at := 0; at < len(st.pending); at += width {
				row := st.pending[at : at+width]
				if s.memberRow(vs, row) {
					st.tbl.insert(row)
					progress = true
				} else {
					keep = append(keep, row...)
				}
			}
			st.pending = keep
		}
	}

	if s.growthDone && s.verifyDrained(vs, st) {
		// Candidate sets are final: parked rows can never pass now.
		st.pending = nil
		st.complete = true
		if st.tbl.n == 0 {
			s.finishEmpty()
		}
	}
	return progress, nil
}

// verifyDrained reports whether a row-table verification has consumed
// every available input. A collector has, whenever it has just run: the
// wave's records are all there is.
func (s *Stream) verifyDrained(vs *plan.VerifyStep, st *vstate) bool {
	if vs.FromStep >= 0 {
		return true
	}
	st.enum.refresh(s.V)
	return st.enum.empty()
}

// candMark fingerprints the sizes of the candidate sets a verification's
// row values are checked against; parked rows are rechecked only when it
// moves.
func (s *Stream) candMark(vs *plan.VerifyStep) int64 {
	var n int64
	for _, src := range vs.Row {
		n += int64(len(s.V[src.Class].ids))
	}
	return n
}

// offerRow considers one fetched entry — its probe's X-combo and its Y
// columns, as ids — as a row of its table. Consistency failures are
// permanent (the values are fixed in the entry); membership failures park
// the row for recheck after the candidate sets grow. Only a row the table
// does not have yet is stored.
func (s *Stream) offerRow(st *vstate, vs *plan.VerifyStep, x, y []uint32) {
	for k := 0; k+1 < len(vs.Consistency); k += 2 {
		if rowID(vs.Consistency[k], x, y) != rowID(vs.Consistency[k+1], x, y) {
			return
		}
	}
	row := s.rowbuf[:len(vs.Row)]
	for k, src := range vs.Row {
		row[k] = rowID(src, x, y)
	}
	if s.memberRow(vs, row) {
		st.tbl.insert(row)
		return
	}
	st.pending = append(st.pending, row...)
}

// rowID reads one row column from its source: the lookup combo or the
// fetched entry.
func rowID(src plan.RowSource, x, y []uint32) uint32 {
	if src.FromX >= 0 {
		return x[src.FromX]
	}
	return y[src.FromY]
}

// memberRow reports whether every id of the row is a candidate of its
// class (consistency is the caller's, checked once — it never changes).
func (s *Stream) memberRow(vs *plan.VerifyStep, row []uint32) bool {
	for k, src := range vs.Row {
		if !s.V[src.Class].contains(row[k]) {
			return false
		}
	}
	return true
}

// emitWave joins the wave's table deltas semi-naively, in table order,
// and reports whether a new distinct answer was emitted.
func (s *Stream) emitWave() (bool, error) {
	before := s.seenOut.n
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
	for t := range s.tables {
		if s.tables[t].n == s.tables[t].waveBase {
			continue
		}
		if err := s.joinDelta(t); err != nil {
			return false, err
		}
		if s.done {
			break
		}
	}
	return s.seenOut.n > before, nil
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
	for vi := range s.vst {
		if !s.vst[vi].complete {
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
