package exec

import (
	"fmt"
	"slices"

	"bcq/internal/value"
)

// This file is the stream's in-memory join: persistent per-table hash
// indexes and a depth-first walk that binds class values in place, so a
// wave's join costs its delta's share of the result and allocates nothing
// until a new distinct answer is projected.

// keySet is a set of value lists keyed by their AppendKey encoding. The
// caller encodes into a buffer it reuses; only a first sight allocates
// (the stored key string).
type keySet map[string]struct{}

// insert adds the encoded key and reports whether it was new.
func (ks keySet) insert(key []byte) bool {
	if _, dup := ks[string(key)]; dup {
		return false
	}
	ks[string(key)] = struct{}{}
	return true
}

// joinIndex is a persistent hash index of one streamTable on a fixed list
// of key columns. Rows sharing a key form a chain in ascending row order
// (head → next → … → -1), so a lookup walks its matches oldest first and
// can stop at a row-number bound with a break. The index is extended
// lazily with the rows appended since its last use and never rebuilt.
type joinIndex struct {
	cols []int
	// one keys single-column indexes by the value itself; many keys the
	// rest by the columns' AppendKey encoding. Both map to a chain id.
	one  map[value.Value]int32
	many map[string]int32
	// head and tail are each chain's first and last row; next links a row
	// to the following row of its chain. len(next) is the number of rows
	// indexed so far.
	head, tail []int32
	next       []int32
}

// chain returns the id of the chain keyed by vals[at[0]], vals[at[1]], …
// (at aligned with cols), encoding multi-column keys into buf.
func (ix *joinIndex) chain(vals []value.Value, at []int, buf *[]byte) (int32, bool) {
	if ix.one != nil {
		id, ok := ix.one[vals[at[0]]]
		return id, ok
	}
	b := (*buf)[:0]
	for _, k := range at {
		b = vals[k].AppendKey(b)
	}
	*buf = b
	id, ok := ix.many[string(b)]
	return id, ok
}

// extend indexes the rows appended since the last call.
func (ix *joinIndex) extend(rows []value.Tuple, buf *[]byte) {
	ix.next = slices.Grow(ix.next, len(rows)-len(ix.next))
	for rn := len(ix.next); rn < len(rows); rn++ {
		row := rows[rn]
		id, ok := ix.chain(row, ix.cols, buf)
		ix.next = append(ix.next, -1)
		if ok {
			ix.next[ix.tail[id]] = int32(rn)
			ix.tail[id] = int32(rn)
			continue
		}
		id = int32(len(ix.head))
		ix.head = append(ix.head, int32(rn))
		ix.tail = append(ix.tail, int32(rn))
		if ix.one != nil {
			ix.one[row[ix.cols[0]]] = id
		} else {
			ix.many[string(*buf)] = id
		}
	}
}

// first returns the oldest row whose key columns equal the bound values
// of the given classes (aligned with cols), or -1.
func (ix *joinIndex) first(bind []value.Value, classes []int, buf *[]byte) int32 {
	id, ok := ix.chain(bind, classes, buf)
	if !ok {
		return -1
	}
	return ix.head[id]
}

// index returns the table's index on the given key columns, creating it
// on first request. Join orders of different delta tables that probe a
// table by the same columns share one index.
func (tbl *streamTable) index(cols []int) *joinIndex {
	for _, ix := range tbl.indexes {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	ix := &joinIndex{cols: append([]int(nil), cols...)}
	if len(cols) == 1 {
		ix.one = make(map[value.Value]int32)
	} else {
		ix.many = make(map[string]int32)
	}
	tbl.indexes = append(tbl.indexes, ix)
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
	if s.orders == nil {
		s.orders = make([][]joinStep, len(s.tables))
	}
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
	for _, tbl := range s.tables {
		ncols += len(tbl.classes)
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
		tbl := s.tables[next]
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
		for u, cand := range s.tables {
			if placed[u] {
				continue
			}
			shared := 0
			for _, c := range cand.classes {
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
	for u, tbl := range s.tables {
		if (u < t && len(tbl.rows) == 0) || (u > t && tbl.waveBase == 0) {
			return nil // some table contributes nothing yet
		}
	}
	order, err := s.joinOrder(t)
	if err != nil {
		return err
	}
	for i := range order {
		st := &order[i]
		st.lo, st.hi = 0, len(st.tbl.rows)
		if st.old {
			st.hi = st.tbl.waveBase
		}
		if st.idx != nil {
			st.idx.extend(st.tbl.rows, &s.keybuf)
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
	rows := st.tbl.rows
	visit := func(rn int) {
		s.joinVisits++
		for k, col := range st.newCols {
			s.bind[st.newClasses[k]] = rows[rn][col]
		}
		s.joinWalk(order, d+1)
	}
	if st.idx == nil {
		for rn := st.lo; rn < st.hi && !s.done; rn++ {
			visit(rn)
		}
		return
	}
	for rn := st.idx.first(s.bind, st.keyClasses, &s.keybuf); rn >= 0 && int(rn) < st.hi && !s.done; rn = st.idx.next[rn] {
		visit(int(rn))
	}
}

// project emits the current binding's output tuple if it is a new
// distinct answer, and stops the stream at its limit.
func (s *Stream) project() {
	out := s.r.p.OutputClasses
	buf := s.keybuf[:0]
	for _, c := range out {
		buf = s.bind[c].AppendKey(buf)
	}
	s.keybuf = buf
	if !s.seenOut.insert(buf) {
		return
	}
	tu := make(value.Tuple, len(out))
	for k, c := range out {
		tu[k] = s.bind[c]
	}
	s.outbuf = append(s.outbuf, tu)
	if s.opts.Limit > 0 && len(s.seenOut) >= s.opts.Limit {
		s.limited = true
		s.done = true
	}
}
