package exec

import (
	"fmt"
	"slices"
)

// This file is the stream's in-memory join: persistent per-table indexes
// over the tables' id rows and a depth-first walk that binds class ids in
// place, so a wave's join costs its delta's share of the result, hashes at
// most a few id words per step, and builds no value.Tuple at all — answers
// are recorded as id rows and turned into tuples when Next hands them out.

// joinIndex is a persistent index of one streamTable on a fixed list of
// key columns. Rows sharing a key form a chain in ascending row order
// (head → next → … → -1), so a lookup walks its matches oldest first and
// can stop at a row-number bound with a break. The index is extended
// lazily with the rows appended since its last use and never rebuilt.
type joinIndex struct {
	rs   *rowSet
	cols []int
	// chainOf serves a single key column without hashing: indexed by value
	// id, it holds 1 + the chain of the rows carrying that id (0: none),
	// and reaches as far as the largest id indexed. slots serves several
	// key columns: open-addressed over the chains' key ids (read off each
	// chain's head row), holding 1 + the chain.
	chainOf []uint32
	slots   []uint32
	// head and tail are each chain's first and last row; next links a row
	// to the following row of its chain. len(next) is the number of rows
	// indexed so far.
	head, tail []int32
	next       []int32
}

// chain returns the chain keyed by vals[at[0]], vals[at[1]], … (at aligned
// with cols), or -1.
func (ix *joinIndex) chain(vals []uint32, at []int) int32 {
	if len(ix.cols) == 1 {
		if id := vals[at[0]]; int(id) < len(ix.chainOf) {
			return int32(ix.chainOf[id]) - 1
		}
		return -1
	}
	if len(ix.slots) == 0 {
		return -1
	}
	mask := uint64(len(ix.slots) - 1)
	for i := hashIDs(vals, at) & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s == 0 {
			return -1
		}
		row := ix.rs.row(int(ix.head[s-1]))
		same := true
		for k, col := range ix.cols {
			if row[col] != vals[at[k]] {
				same = false
				break
			}
		}
		if same {
			return int32(s - 1)
		}
	}
}

// extend indexes the rows appended since the last call.
func (ix *joinIndex) extend() {
	ix.next = slices.Grow(ix.next, ix.rs.n-len(ix.next))
	for rn := len(ix.next); rn < ix.rs.n; rn++ {
		row := ix.rs.row(rn)
		ix.next = append(ix.next, -1)
		if c := ix.chain(row, ix.cols); c >= 0 {
			ix.next[ix.tail[c]] = int32(rn)
			ix.tail[c] = int32(rn)
			continue
		}
		ix.head = append(ix.head, int32(rn))
		ix.tail = append(ix.tail, int32(rn))
		ix.addChain(row)
	}
}

// addChain makes the newest chain, whose head row is given, findable.
func (ix *joinIndex) addChain(row []uint32) {
	c := uint32(len(ix.head)) // 1 + the chain
	if len(ix.cols) == 1 {
		id := int(row[ix.cols[0]])
		if id >= len(ix.chainOf) {
			ix.chainOf = append(ix.chainOf, make([]uint32, id+1-len(ix.chainOf))...)
		}
		ix.chainOf[id] = c
		return
	}
	first := c
	if full(len(ix.head)-1, len(ix.slots)) {
		ix.slots = grownSlots(ix.slots)
		first = 1
	}
	mask := uint64(len(ix.slots) - 1)
	for ; first <= c; first++ {
		i := hashIDs(ix.rs.row(int(ix.head[first-1])), ix.cols) & mask
		for ix.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = first
	}
}

// first returns the oldest row whose key columns equal the bound ids of
// the given classes (aligned with cols), or -1.
func (ix *joinIndex) first(bind []uint32, classes []int) int32 {
	c := ix.chain(bind, classes)
	if c < 0 {
		return -1
	}
	return ix.head[c]
}

// index returns the table's index on the given key columns, creating it
// on first request. Join orders of different delta tables that probe a
// table by the same columns share one index. An index a previous stream
// left behind the slice's length (streamTable.reset) is taken over, arrays
// and all.
func (tbl *streamTable) index(cols []int) *joinIndex {
	for _, ix := range tbl.indexes {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	n := len(tbl.indexes)
	if n < cap(tbl.indexes) && tbl.indexes[:n+1][n] != nil {
		tbl.indexes = tbl.indexes[:n+1]
	} else {
		tbl.indexes = append(tbl.indexes, &joinIndex{})
	}
	ix := tbl.indexes[n]
	ix.rs, ix.cols = &tbl.rowSet, append(ix.cols[:0], cols...)
	return ix
}

// joinStep is one table of a delta join order: how the walk reaches its
// rows and which classes they bind.
type joinStep struct {
	tbl *streamTable
	// idx probes the table by the classes bound before it (keyClasses,
	// aligned with idx.cols); nil walks every row in [lo, hi) — the delta
	// table itself, or a table sharing no class with what is bound.
	idx        *joinIndex
	keyClasses []int
	// newCols are the columns whose classes (newClasses) this step binds.
	newCols, newClasses []int
	// old marks a table after the delta table, which joins only the rows
	// it had before the wave; lo and hi are the resulting row-number
	// bounds of the current wave.
	old    bool
	lo, hi int
}

// joinOrder returns the static order in which table t's deltas are
// joined, computing it on first use. The order is connected: it starts
// at t and always extends through the remaining table sharing the most
// classes with those already bound, so every step after the first is an
// index probe whenever the query's join graph allows one. A seed class
// is never a connection — every verified row carries the seed constant
// there, so keying on it selects the whole table and multiplies the
// delta with it. Ties go to the later table, which in a delta join
// contributes only its pre-wave rows and so prunes soonest. Tables that
// share nothing with the bound classes (a cross product) come last, in
// table order.
func (s *Stream) joinOrder(t int) ([]joinStep, error) {
	if s.orders[t] != nil {
		return s.orders[t], nil
	}
	const (
		free   = iota // not bound yet
		joined        // bound by an earlier table of the order
		seeded        // pinned by a seed constant
	)
	state := make([]uint8, s.r.p.Closure.NumClasses())
	for _, sd := range s.r.p.Seeds {
		state[sd.Class] = seeded
	}
	ncols := 0
	for u := range s.tables {
		ncols += len(s.tables[u].classes)
	}
	// One backing array serves the column and class lists of all steps.
	pool := make([]int, 4*ncols)
	take := func(n int) []int {
		out := pool[:0:n]
		pool = pool[n:]
		return out
	}
	order := make([]joinStep, 0, len(s.tables))
	placed := make([]bool, len(s.tables))
	next := t
	for len(order) < len(s.tables) {
		tbl := &s.tables[next]
		placed[next] = true
		n := len(tbl.classes)
		st := joinStep{tbl: tbl, old: next > t}
		keyCols := take(n)
		st.keyClasses, st.newCols, st.newClasses = take(n), take(n), take(n)
		for col, c := range tbl.classes {
			switch state[c] {
			case joined:
				keyCols = append(keyCols, col)
				st.keyClasses = append(st.keyClasses, c)
			case free:
				st.newCols = append(st.newCols, col)
				st.newClasses = append(st.newClasses, c)
			}
		}
		for _, c := range st.newClasses {
			state[c] = joined
		}
		if len(keyCols) > 0 {
			st.idx = tbl.index(keyCols)
		}
		order = append(order, st)

		// Most shared classes wins, the later table on ties; with nothing
		// connected, the first unplaced table (a cross product).
		best := 0
		next = -1
		for u := range s.tables {
			if placed[u] {
				continue
			}
			shared := 0
			for _, c := range s.tables[u].classes {
				if state[c] == joined {
					shared++
				}
			}
			if shared > 0 && shared >= best {
				best, next = shared, u
			} else if best == 0 && next < 0 {
				next = u
			}
		}
	}
	for _, c := range s.r.p.OutputClasses {
		if state[c] == free {
			return nil, fmt.Errorf("exec: output class %d never joined (malformed plan)", c)
		}
	}
	s.orders[t] = order
	return order, nil
}

// joinDelta emits the wave's new join results that include a row of
// table t's delta: new_{<t} ⋈ ΔR_t ⋈ old_{>t}. The partition is kept by
// row-number bounds alone — tables before t join all their rows, tables
// after it only those below their waveBase — so across the wave's
// per-table joins every new result is reached exactly once.
func (s *Stream) joinDelta(t int) error {
	for u := range s.tables {
		tbl := &s.tables[u]
		if (u < t && tbl.n == 0) || (u > t && tbl.waveBase == 0) {
			return nil // some table contributes nothing yet
		}
	}
	order, err := s.joinOrder(t)
	if err != nil {
		return err
	}
	for i := range order {
		st := &order[i]
		st.lo, st.hi = 0, st.tbl.n
		if st.old {
			st.hi = st.tbl.waveBase
		}
		if st.idx != nil {
			st.idx.extend()
		}
	}
	order[0].lo = order[0].tbl.waveBase
	s.joinWalk(order, 0)
	return nil
}

// joinWalk extends the binding depth-first through order[d:]. Chains and
// row ranges ascend, so the walk — and with it the emission order — is a
// function of the tables' contents alone.
func (s *Stream) joinWalk(order []joinStep, d int) {
	if d == len(order) {
		s.joinLeaves++
		s.project()
		return
	}
	st := &order[d]
	visit := func(rn int) {
		s.joinVisits++
		row := st.tbl.row(rn)
		for k, col := range st.newCols {
			s.bind[st.newClasses[k]] = row[col]
		}
		s.joinWalk(order, d+1)
	}
	if st.idx == nil {
		for rn := st.lo; rn < st.hi && !s.done; rn++ {
			visit(rn)
		}
		return
	}
	for rn := st.idx.first(s.bind, st.keyClasses); rn >= 0 && int(rn) < st.hi && !s.done; rn = st.idx.next[rn] {
		visit(int(rn))
	}
}

// project records the current binding's output as an answer if it is a
// new distinct one, and stops the stream at its limit. Answers are kept —
// and deduplicated — as id rows; Next turns one back into values when the
// caller pulls it.
func (s *Stream) project() {
	out := s.r.p.OutputClasses
	ids := s.rowbuf[:0]
	for _, c := range out {
		ids = append(ids, s.bind[c])
	}
	s.rowbuf = ids
	if !s.seenOut.insert(ids) {
		return
	}
	if s.opts.Limit > 0 && s.seenOut.n >= s.opts.Limit {
		s.limited = true
		s.done = true
	}
}
