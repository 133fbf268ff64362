package exec

import "bcq/internal/value"

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
	// classes is the attribute-aligned class list (may repeat a class);
	// uniq the distinct classes in first-seen order; slot maps each
	// attribute position to its uniq index.
	classes []int
	uniq    []int
	slot    []int
	// frontier is the covered candidate-prefix length per uniq class; cur
	// is refresh's scratch for the current lengths.
	frontier []int
	cur      []int
	blocks   []deltaBlock
	// odo is the odometer within blocks[0] when inBlock.
	odo     []int
	inBlock bool
	// nullaryDone marks the single empty combination of an empty X list
	// as emitted.
	nullaryDone bool
}

type deltaBlock struct {
	lo, hi []int
}

func newDeltaEnum(classes []int) *deltaEnum {
	e := &deltaEnum{classes: classes, slot: make([]int, len(classes))}
	for k, c := range classes {
		j := 0
		for j < len(e.uniq) && e.uniq[j] != c {
			j++
		}
		if j == len(e.uniq) {
			e.uniq = append(e.uniq, c)
		}
		e.slot[k] = j
	}
	e.frontier = make([]int, len(e.uniq))
	e.cur = make([]int, len(e.uniq))
	return e
}

// refresh carves the growth of the candidate sets since the last refresh
// into pending blocks and advances the frontier. It is called several
// times per wave and mostly finds nothing grown, which costs one length
// comparison per class.
func (e *deltaEnum) refresh(V []*candSet) {
	grown := false
	for j, c := range e.uniq {
		if len(V[c].vals) > e.frontier[j] {
			grown = true
			break
		}
	}
	if !grown {
		return
	}
	cur := e.cur
	for j, c := range e.uniq {
		cur[j] = len(V[c].vals)
	}
	for j := range e.uniq {
		if cur[j] <= e.frontier[j] {
			continue
		}
		lo := make([]int, len(e.uniq))
		hi := make([]int, len(e.uniq))
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
		if !empty {
			e.blocks = append(e.blocks, deltaBlock{lo: lo, hi: hi})
		}
	}
	copy(e.frontier, cur)
}

// next produces up to max pending combinations (max ≤ 0: all pending),
// as tuples positionally aligned with the attribute list.
func (e *deltaEnum) next(V []*candSet, max int) []value.Tuple {
	if len(e.uniq) == 0 {
		if e.nullaryDone {
			return nil
		}
		e.nullaryDone = true
		return []value.Tuple{{}}
	}
	var out []value.Tuple
	for (max <= 0 || len(out) < max) && (e.inBlock || len(e.blocks) > 0) {
		if !e.inBlock {
			b := e.blocks[0]
			e.odo = append(e.odo[:0], b.lo...)
			e.inBlock = true
		}
		b := e.blocks[0]
		x := make(value.Tuple, len(e.classes))
		for k, c := range e.classes {
			x[k] = V[c].vals[e.odo[e.slot[k]]]
		}
		out = append(out, x)
		j := len(e.odo) - 1
		for j >= 0 {
			e.odo[j]++
			if e.odo[j] < b.hi[j] {
				break
			}
			e.odo[j] = b.lo[j]
			j--
		}
		if j < 0 {
			e.inBlock = false
			e.blocks = e.blocks[1:]
		}
	}
	return out
}

// empty reports whether nothing is pending at the current frontier (a
// later refresh may add more).
func (e *deltaEnum) empty() bool {
	if len(e.uniq) == 0 {
		return e.nullaryDone
	}
	return !e.inBlock && len(e.blocks) == 0
}

// pendingCount counts the combinations carved out but never produced —
// the probes an early-terminated stream is known to have saved.
func (e *deltaEnum) pendingCount() int64 {
	if len(e.uniq) == 0 {
		if e.nullaryDone {
			return 0
		}
		return 1
	}
	var n int64
	for bi, b := range e.blocks {
		vol := int64(1)
		for i := range b.lo {
			vol *= int64(b.hi[i] - b.lo[i])
		}
		if bi == 0 && e.inBlock {
			done := int64(0)
			mult := int64(1)
			for i := len(b.lo) - 1; i >= 0; i-- {
				done += int64(e.odo[i]-b.lo[i]) * mult
				mult *= int64(b.hi[i] - b.lo[i])
			}
			vol -= done
		}
		n += vol
	}
	return n
}
