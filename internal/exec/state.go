package exec

import (
	"sync"

	"bcq/internal/plan"
	"bcq/internal/value"
)

// streamState is everything a Stream grows while it evaluates — the value
// dictionary, candidate sets, D_Q ledger, enumerators, row tables with
// their join indexes, the answer set and the scratch arenas. It is all
// flat arrays (ids.go), so a finished stream's state is worth keeping: it
// goes back to statePool truncated, not freed, and the next stream —
// whatever its plan — starts at the capacities the last one reached. A
// request that repeats a recent one's shape then allocates for its
// answers and little else.
//
// Invariant: a state in the pool is clean. Every slice is empty or holds
// only reset elements, every slot array is zero, and nothing in it refers
// to a plan, a store or a value's string, so pooling neither leaks one
// request's data into the next nor pins it in memory.
type streamState struct {
	// dict interns every value the evaluation reads; V is the candidate
	// set of each Σ_Q class over its ids; dq the fetched (relation, shard,
	// position) triples.
	dict valueDict
	V    []candSet
	dq   posSet

	// enums are the lookup enumerators: one per fetch step, in plan order,
	// then one per witness-probing verification (vstate.enum).
	enums []deltaEnum
	steps []stepState
	vst   []vstate
	// tables are the row tables of non-Exists verifications, in plan
	// order (vstate.tbl points into this slice's elements).
	tables []streamTable

	// The probe arena, reused by every operation of every wave: xids holds
	// the batch's X-combos as ids, xvals the same as values, and xs the
	// tuples over xvals that Store.FetchBatch takes (stores do not keep
	// them). ybuf is one entry's Y ids, rowbuf one row's or answer's ids.
	// recs holds the current wave's records of the retained fetch steps
	// (stepState.recLo).
	xids   []uint32
	xvals  []value.Value
	xs     []value.Tuple
	ybuf   []uint32
	rowbuf []uint32
	recs   []uint32

	// Join state (join.go): bind is the class → id binding the depth-first
	// walk fills in place, pre-set with the seed constants; orders[t] is
	// table t's delta join order, computed on first use.
	bind   []uint32
	orders [][]joinStep

	// seenOut holds the distinct answers as id rows in discovery order.
	seenOut rowSet
}

var statePool = sync.Pool{New: func() any { return new(streamState) }}

// maxPooledWords bounds the state a finished stream hands back: one that
// grew past it (a scan of tens of thousands of tuples) is left to the
// collector, so the pool never holds — and reset never clears — more than
// a working set's worth per idle state.
const maxPooledWords = 1 << 18

// sized returns s with n elements, reusing its array when that is large
// enough. Elements past the old length are whatever reset left there:
// clean ones.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// shape lays a clean state out for a plan: one candidate set per class
// with the seeds in, one enumerator per probing operation, one table per
// row-producing verification. It returns the number of distinct relations
// the plan fetches from — their D_Q ordinals are assigned in order of
// first use.
func (st *streamState) shape(p *plan.Plan) int {
	st.V = sized(st.V, p.Closure.NumClasses())
	st.bind = sized(st.bind, len(st.V))
	clear(st.bind)
	for _, sd := range p.Seeds {
		id := st.dict.intern(sd.Val)
		st.V[sd.Class].add(id)
		st.bind[sd.Class] = id
	}

	ntables, nenums, width := 0, len(p.Steps), len(p.OutputClasses)
	for vi := range p.Verifies {
		vs := &p.Verifies[vi]
		if vs.Exists {
			continue
		}
		ntables++
		if vs.FromStep < 0 {
			nenums++
			width = max(width, len(vs.Witness.Y))
		}
		width = max(width, len(vs.Row))
	}
	// rels lists the distinct relations so far; plans name a handful.
	var relBuf [8]string
	rels := relBuf[:0]
	relOf := func(rel string) int {
		for i, name := range rels {
			if name == rel {
				return i
			}
		}
		rels = append(rels, rel)
		return len(rels) - 1
	}
	st.enums = sized(st.enums, nenums)
	st.steps = sized(st.steps, len(p.Steps))
	for si := range p.Steps {
		fs := &p.Steps[si]
		st.enums[si].init(fs.XClasses)
		ss := &st.steps[si]
		ss.rel = relOf(fs.AC.Rel)
		for _, yi := range fs.BindPos {
			useY(&ss.yUse, yi)
		}
		width = max(width, len(fs.AC.Y))
	}
	st.vst = sized(st.vst, len(p.Verifies))
	st.tables = sized(st.tables, ntables)
	st.orders = sized(st.orders, ntables)
	ntables, nenums = 0, len(p.Steps)
	for vi := range p.Verifies {
		vs := &p.Verifies[vi]
		if vs.Exists {
			continue
		}
		v := &st.vst[vi]
		v.tbl = &st.tables[ntables]
		ntables++
		v.tbl.stride = len(vs.Row)
		for _, src := range vs.Row {
			v.tbl.classes = append(v.tbl.classes, src.Class)
		}
		yUse := &v.yUse
		if vs.FromStep >= 0 {
			st.steps[vs.FromStep].retain = true
			yUse = &st.steps[vs.FromStep].yUse
		} else {
			v.enum = &st.enums[nenums]
			nenums++
			v.enum.init(vs.XClasses)
			v.rel = relOf(vs.Witness.Rel)
		}
		useSources(yUse, vs.Row)
		useSources(yUse, vs.Consistency)
	}
	st.seenOut.stride = len(p.OutputClasses)
	st.ybuf = sized(st.ybuf, width)
	st.rowbuf = sized(st.rowbuf, width)
	return len(rels)
}

// words is the state's size in the units maxPooledWords counts: the
// elements of its data-sized arrays.
func (st *streamState) words() int {
	n := len(st.dict.kinds) + len(st.dict.slots) + len(st.dq.slots) + len(st.seenOut.rows) + len(st.seenOut.slots) + cap(st.xvals) + cap(st.recs)
	for t := range st.tables {
		n += len(st.tables[t].rows) + len(st.tables[t].slots)
	}
	return n
}

// reset restores the pool invariant after an evaluation: contents
// dropped, arrays kept.
func (st *streamState) reset() {
	if st.words() > maxPooledWords {
		*st = streamState{}
		return
	}
	st.dict.reset()
	for c := range st.V {
		st.V[c].reset()
	}
	st.dq.reset()
	for i := range st.steps {
		st.steps[i] = stepState{}
	}
	for i := range st.vst {
		st.vst[i] = vstate{pending: st.vst[i].pending[:0]}
	}
	for t := range st.tables {
		st.tables[t].reset()
	}
	clear(st.xvals[:cap(st.xvals)])
	clear(st.xs[:cap(st.xs)])
	clear(st.orders)
	st.seenOut.reset()
	st.V, st.enums, st.steps, st.vst, st.tables = st.V[:0], st.enums[:0], st.steps[:0], st.vst[:0], st.tables[:0]
	st.xids, st.xvals, st.xs, st.recs = st.xids[:0], st.xvals[:0], st.xs[:0], st.recs[:0]
	st.bind, st.orders = st.bind[:0], st.orders[:0]
}

func (d *valueDict) reset() {
	clear(d.strs)
	clear(d.slots)
	d.kinds, d.words, d.strs = d.kinds[:0], d.words[:0], d.strs[:0]
}

func (c *candSet) reset() {
	clear(c.bits)
	c.ids, c.bits = c.ids[:0], c.bits[:0]
}

func (rs *rowSet) reset() {
	clear(rs.slots)
	rs.n, rs.rows = 0, rs.rows[:0]
}

func (p *posSet) reset() {
	clear(p.slots)
	p.n = 0
}

// reset empties the table and its indexes. The index objects stay behind
// the slice's length for index to pick up again.
func (tbl *streamTable) reset() {
	tbl.rowSet.reset()
	tbl.classes, tbl.waveBase = tbl.classes[:0], 0
	for _, ix := range tbl.indexes {
		clear(ix.chainOf)
		clear(ix.slots)
		ix.cols, ix.chainOf, ix.head, ix.tail, ix.next = ix.cols[:0], ix.chainOf[:0], ix.head[:0], ix.tail[:0], ix.next[:0]
	}
	tbl.indexes = tbl.indexes[:0]
}
