package deduce

import (
	"slices"

	"bcq/internal/schema"
	"bcq/internal/spc"
)

// Actualized is one application of the Actualization rule: access
// constraint Ord of A instantiated on atom Atom of the query, with its X and
// Y attribute sets translated to Σ_Q equivalence classes. It plays the role
// of the constraints φ in the set Γ of algorithm BCheck (Figure 3, line 1).
type Actualized struct {
	// Atom is the index of the renaming S_i the constraint was applied to.
	Atom int
	// Ord is the constraint's ordinal in the access schema it was
	// actualized from (its index in Constraints()): acts sort by N, and
	// declaration order is what breaks the planner's ties between equally
	// priced constraints.
	Ord int
	// N is the constraint's cardinality bound.
	N int64
	// XClasses are the class ids of S_i[X], deduplicated and sorted
	// (several X attributes may share a class).
	XClasses []int
	// XAttrClasses are the same class ids aligned with the constraint's X
	// (one entry per X attribute, duplicates possible) — the order a
	// probe's lookup key is assembled in.
	XAttrClasses []int
	// YClasses are the class ids of S_i[Y], aligned with the constraint's
	// Y (one entry per Y attribute, duplicates possible).
	YClasses []int
}

// Actualize instantiates every constraint of A — compiled against the
// query's catalog — on every atom that renames the constraint's relation
// (the Actualization rule of I_B and I_E). The result is ordered by
// ascending bound N, then by declaration order and atom; the closure
// engine fires ready constraints in this order, which biases derivations —
// and therefore the plans QPlan extracts from them — toward cheap
// constraints first.
func Actualize(cl *spc.Closure, comp *schema.Compiled) []Actualized {
	atoms := len(cl.Query().Atoms)
	// Size the act list and the one array all its class lists are cut from.
	acts, classes := 0, 0
	for _, ord := range comp.Order() {
		rc := comp.Constraint(ord)
		for i := 0; i < atoms; i++ {
			if cl.Relation(i) == rc.Rel {
				acts++
				classes += 2*len(rc.XPos) + len(rc.YPos)
			}
		}
	}
	out := make([]Actualized, 0, acts)
	slab := make([]int, 0, classes)
	for _, ord := range comp.Order() {
		rc := comp.Constraint(ord)
		for i := 0; i < atoms; i++ {
			if cl.Relation(i) != rc.Rel {
				continue
			}
			act := Actualized{Atom: i, Ord: ord, N: rc.N}
			from := len(slab)
			for _, p := range rc.XPos {
				slab = append(slab, cl.ClassAt(i, p))
			}
			act.XAttrClasses = slab[from:len(slab):len(slab)]
			from = len(slab)
			for k, id := range act.XAttrClasses {
				if !slices.Contains(act.XAttrClasses[:k], id) {
					slab = append(slab, id)
				}
			}
			act.XClasses = slab[from:len(slab):len(slab)]
			slices.Sort(act.XClasses)
			from = len(slab)
			for _, p := range rc.YPos {
				slab = append(slab, cl.ClassAt(i, p))
			}
			act.YClasses = slab[from:len(slab):len(slab)]
			out = append(out, act)
		}
	}
	return out
}

// Step records one firing of an actualized constraint during the closure
// computation: which constraint fired and which classes it covered for the
// first time. The ordered step list is a derivation (proof) in I_B / I_E;
// QPlan replays it as a fetch plan.
type Step struct {
	// Act indexes into the actualized-constraint list passed to Close.
	Act int
	// NewClasses are the classes first covered by this firing, ascending.
	NewClasses []int
}

// Result is the outcome of a closure computation: the access closure of the
// seed set (the paper's X* notation, proof of Theorem 3), per-class
// cardinality bounds, and the derivation.
type Result struct {
	// Reached is the access closure: every class deducible from the seed.
	Reached spc.ClassSet
	// BoundOf[class] bounds the number of distinct values the class can
	// take given fixed seed values; Unbounded for unreached classes.
	BoundOf []Bound
	// Steps is the derivation in firing order.
	Steps []Step
}

// Close computes the access closure of seed under the actualized
// constraints, implementing the counter-based fixpoint of algorithm BCheck
// (Figure 3, lines 2–14) in O(Σ|φ| + |Q|) time after actualization:
// each constraint keeps a counter of its still-uncovered X classes and a
// per-class watch list L[class]; covering a class decrements the counters
// of the constraints watching it, and a counter hitting zero fires the
// constraint, covering its Y classes.
//
// Equality propagation (Figure 3 lines 12–14) is implicit: classes are Σ_Q
// equivalence classes, so covering a class covers every attribute
// occurrence Σ_Q-equal to it.
func Close(cl *spc.Closure, acts []Actualized, seed spc.ClassSet) *Result {
	n := cl.NumClasses()
	res := &Result{Reached: seed.Clone(), BoundOf: make([]Bound, n), Steps: make([]Step, 0, min(len(acts), n))}
	for i := range res.BoundOf {
		res.BoundOf[i] = Unbounded
	}
	for c := seed.Next(0); c >= 0; c = seed.Next(c + 1) {
		res.BoundOf[c] = NewBound(1)
	}

	// One array carries every integer table: the counters, the per-class
	// watch lists (class c's watchers are watchers[watchAt[c]:watchAt[c+1]],
	// counted then filled), the work queue and the derivation's class lists
	// — each class enters the last two at most once.
	watching := 0
	for _, act := range acts {
		watching += len(act.XClasses)
	}
	ints := make([]int, len(acts)+(n+1)+watching+2*n)
	counters, ints := ints[:len(acts)], ints[len(acts):]
	watchAt, ints := ints[:n+1], ints[n+1:]
	watchers, ints := ints[:watching], ints[watching:]
	queue, newSlab := ints[:0:n], ints[n:n:2*n]

	for ai, act := range acts {
		for _, c := range act.XClasses {
			if !res.Reached.Has(c) {
				counters[ai]++
				watchAt[c+1]++
			}
		}
	}
	for c := 0; c < n; c++ {
		watchAt[c+1] += watchAt[c]
	}
	fill := newSlab[:n] // next free slot per class; the slab is not in use yet
	copy(fill, watchAt[:n])
	for ai, act := range acts {
		for _, c := range act.XClasses {
			if !res.Reached.Has(c) {
				watchers[fill[c]] = ai
				fill[c]++
			}
		}
	}

	// fire covers the act's Y classes and records the firing when it
	// covered anything new. Every act fires at most once: in the first
	// sweep when its counter starts at zero, or the moment it reaches it.
	fire := func(ai int) {
		act := acts[ai]
		// Bound of the fired X set: product of class bounds. Distinct
		// X-value combinations are at most the product; each contributes at
		// most N distinct Y combinations (Transitivity + Augmentation).
		xb := NewBound(1)
		for _, c := range act.XClasses {
			xb = xb.Mul(res.BoundOf[c])
		}
		yb := xb.Mul(NewBound(act.N))
		from := len(newSlab)
		for _, c := range act.YClasses {
			if !res.Reached.Has(c) {
				res.Reached.Add(c)
				res.BoundOf[c] = yb
				newSlab = append(newSlab, c)
			}
		}
		if newClasses := newSlab[from:len(newSlab):len(newSlab)]; len(newClasses) > 0 {
			slices.Sort(newClasses)
			res.Steps = append(res.Steps, Step{Act: ai, NewClasses: newClasses})
			queue = append(queue, newClasses...)
		}
	}

	// Fire constraints that are ready immediately (all X in seed),
	// in actualization (= ascending N) order.
	for ai := range acts {
		if counters[ai] == 0 {
			fire(ai)
		}
	}
	for head := 0; head < len(queue); head++ {
		c := queue[head]
		for _, ai := range watchers[watchAt[c]:watchAt[c+1]] {
			counters[ai]--
			if counters[ai] == 0 {
				fire(ai)
			}
		}
	}
	return res
}

// BoundOfSet returns the product of the class bounds of a set: an upper
// bound on the number of distinct value combinations the set can take.
func (r *Result) BoundOfSet(s spc.ClassSet) Bound {
	b := NewBound(1)
	for c := s.Next(0); c >= 0; c = s.Next(c + 1) {
		b = b.Mul(r.BoundOf[c])
	}
	return b
}

// Covers reports whether the closure reached every class of s.
func (r *Result) Covers(s spc.ClassSet) bool { return r.Reached.ContainsAll(s) }

// Missing returns the classes of s the closure did not reach, ascending.
func (r *Result) Missing(s spc.ClassSet) []int {
	var out []int
	for _, c := range s.Members() {
		if !r.Reached.Has(c) {
			out = append(out, c)
		}
	}
	return out
}
