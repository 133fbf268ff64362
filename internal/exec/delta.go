package exec

// deltaEnum incrementally enumerates the lookup combinations of one plan
// operation: the cross product of its X classes' candidate value sets,
// which only grow. The enumerator keeps a frontier — the per-class prefix
// of candidate values already covered — and, when the sets grow, carves
// the difference between the new box and the old one into disjoint
// blocks:
//
//	new \ old  =  ⋃_j  ∏_{i<j}[0,old_i) × [old_j,new_j) × ∏_{i>j}[0,new_i)
//
// Candidate sets are append-only, so a block's index ranges stay valid
// forever and each combination is produced exactly once across the whole
// evaluation; a drained stream issues exactly the probes of a one-shot
// run. Blocks are walked by an odometer (last class fastest), which for
// the single full block of an unbatched run reproduces the classic
// enumeration order.
type deltaEnum struct {
	// uniq is the distinct classes of the attribute-aligned class list
	// (which may repeat a class) in first-seen order; slot maps each
	// attribute position to its uniq index. They, frontier, cur and odo are
	// windows of pool.
	pool []int
	uniq []int
	slot []int
	// frontier is the covered candidate-prefix length per uniq class; cur
	// is refresh's scratch for the current lengths.
	frontier []int
	cur      []int
	// blocks holds the pending blocks back to back, each as its lo bounds
	// followed by its hi bounds (one per uniq class); head is the offset of
	// the first pending block. The storage is reused once every block has
	// been walked.
	blocks []int
	head   int
	// odo is the odometer within the first pending block when inBlock.
	odo     []int
	inBlock bool
	// nullaryDone marks the single empty combination of an empty X list
	// as emitted.
	nullaryDone bool
}

func newDeltaEnum(classes []int) *deltaEnum {
	e := &deltaEnum{}
	e.init(classes)
	return e
}

// init prepares the enumerator — a new one or one a finished stream left
// behind — for an attribute-aligned class list; its index slices are cut
// from one array, kept across uses.
func (e *deltaEnum) init(classes []int) {
	k := len(classes)
	if cap(e.pool) < 5*k {
		e.pool = make([]int, 5*k)
	}
	pool := e.pool[:5*k]
	clear(pool)
	e.slot, e.uniq = pool[:k], pool[k:k:2*k]
	for a, c := range classes {
		j := 0
		for j < len(e.uniq) && e.uniq[j] != c {
			j++
		}
		if j == len(e.uniq) {
			e.uniq = append(e.uniq, c)
		}
		e.slot[a] = j
	}
	u := len(e.uniq)
	e.frontier, e.cur, e.odo = pool[2*k:2*k+u], pool[3*k:3*k+u], pool[4*k:4*k+u]
	e.blocks, e.head, e.inBlock, e.nullaryDone = e.blocks[:0], 0, false, false
}

// refresh carves the growth of the candidate sets since the last refresh
// into pending blocks and advances the frontier. It is called several
// times per wave and mostly finds nothing grown, which costs one length
// comparison per class.
func (e *deltaEnum) refresh(V []candSet) {
	grown := false
	for j, c := range e.uniq {
		if len(V[c].ids) > e.frontier[j] {
			grown = true
			break
		}
	}
	if !grown {
		return
	}
	cur := e.cur
	for j, c := range e.uniq {
		cur[j] = len(V[c].ids)
	}
	u := len(e.uniq)
	for j := range e.uniq {
		if cur[j] <= e.frontier[j] {
			continue
		}
		at := len(e.blocks)
		e.blocks = append(e.blocks, cur...) // lo, overwritten below
		e.blocks = append(e.blocks, cur...) // hi
		lo, hi := e.blocks[at:at+u], e.blocks[at+u:]
		empty := false
		for i := range e.uniq {
			switch {
			case i < j:
				lo[i], hi[i] = 0, e.frontier[i]
			case i == j:
				lo[i], hi[i] = e.frontier[i], cur[i]
			default:
				lo[i], hi[i] = 0, cur[i]
			}
			if hi[i] <= lo[i] {
				empty = true
			}
		}
		if empty {
			e.blocks = e.blocks[:at]
		}
	}
	copy(e.frontier, cur)
}

// next produces up to max pending combinations (max ≤ 0: all pending) as
// candidate value ids, written back to back into dst[:0] — one id per
// attribute position per combination — and returns the buffer and the
// number of combinations.
func (e *deltaEnum) next(V []candSet, max int, dst []uint32) ([]uint32, int) {
	dst = dst[:0]
	u := len(e.uniq)
	if u == 0 {
		if e.nullaryDone {
			return dst, 0
		}
		e.nullaryDone = true
		return dst, 1
	}
	n := 0
	for (max <= 0 || n < max) && e.head < len(e.blocks) {
		lo, hi := e.blocks[e.head:e.head+u], e.blocks[e.head+u:e.head+2*u]
		if !e.inBlock {
			copy(e.odo, lo)
			e.inBlock = true
		}
		for _, j := range e.slot {
			dst = append(dst, V[e.uniq[j]].ids[e.odo[j]])
		}
		n++
		j := u - 1
		for j >= 0 {
			e.odo[j]++
			if e.odo[j] < hi[j] {
				break
			}
			e.odo[j] = lo[j]
			j--
		}
		if j < 0 {
			e.inBlock = false
			e.head += 2 * u
		}
	}
	if e.head == len(e.blocks) {
		e.blocks, e.head = e.blocks[:0], 0
	}
	return dst, n
}

// empty reports whether nothing is pending at the current frontier (a
// later refresh may add more).
func (e *deltaEnum) empty() bool {
	if len(e.uniq) == 0 {
		return e.nullaryDone
	}
	return e.head == len(e.blocks)
}

// pendingCount counts the combinations carved out but never produced —
// the probes an early-terminated stream is known to have saved.
func (e *deltaEnum) pendingCount() int64 {
	u := len(e.uniq)
	if u == 0 {
		if e.nullaryDone {
			return 0
		}
		return 1
	}
	var n int64
	for at := e.head; at < len(e.blocks); at += 2 * u {
		lo, hi := e.blocks[at:at+u], e.blocks[at+u:at+2*u]
		vol := int64(1)
		for i := range lo {
			vol *= int64(hi[i] - lo[i])
		}
		if at == e.head && e.inBlock {
			done := int64(0)
			mult := int64(1)
			for i := u - 1; i >= 0; i-- {
				done += int64(e.odo[i]-lo[i]) * mult
				mult *= int64(hi[i] - lo[i])
			}
			vol -= done
		}
		n += vol
	}
	return n
}
