package live

import (
	"fmt"
	"slices"
	"time"

	"bcq/internal/storage"
	"bcq/internal/value"
)

// txn is the workspace of one batch (see Staged). It buffers every
// effect — copy-on-write index groups, new tuples, tombstones, touched
// ledger entries — against the basis snapshot, so an aborted batch leaves
// no trace and a committed one becomes exactly the next epoch's diff. It
// runs under the store's writer mutex.
type txn struct {
	st   *Store
	snap *Snapshot

	// groups are the X-groups this batch rewrote: acKey → xKey → the full
	// merged entry group as the new epoch will serve it. A group is copied
	// from the basis (or base index) on first touch. from holds, for each,
	// the size the basis served it at: commit moves its card from there.
	groups map[string]map[string][]storage.IndexEntry
	from   map[string]map[string]int
	// addedNew are the tuples this batch inserts, per relation, in order;
	// their positions follow the basis snapshot's added tuples.
	addedNew map[string][]value.Tuple
	// delNew are the positions this batch tombstones, per relation.
	delNew map[string]map[int]bool
	// ledger overlays the store's ledger with the entries this batch
	// touched: acKey → pairKey → the pair's positions as of the batch's
	// progress, nil once the pair is back to fewer than two occurrences.
	ledger map[string]map[string][]int
	// quarantined collects Permissive-mode refusals, merged on commit.
	quarantined []Quarantined
	// applied records the ops that took effect, in order — the WAL logs
	// exactly these (never quarantined ones), so replaying them through
	// Apply is deterministic and never re-rejects.
	applied []Op
	// nApplied counts ops that took effect.
	nApplied int64
}

func newTxn(st *Store, snap *Snapshot) txn {
	return txn{
		st:       st,
		snap:     snap,
		groups:   make(map[string]map[string][]storage.IndexEntry),
		from:     make(map[string]map[string]int),
		addedNew: make(map[string][]value.Tuple),
		delNew:   make(map[string]map[int]bool),
		ledger:   make(map[string]map[string][]int),
	}
}

// group returns the batch's working copy of t's X-group under a
// constraint, whose X-key xk the caller has encoded, reading it from the
// basis snapshot (which falls through to the base index) until the batch
// rewrites it.
func (tx *txn) group(b acBinding, t value.Tuple, xk string) []storage.IndexEntry {
	if g, ok := tx.groups[b.key][xk]; ok {
		return g
	}
	r, _ := tx.snap.resolve(b.key)
	return r.at(t, b.xPos)
}

// setGroup installs the batch's rewrite of group old. An emptied group
// stays in the diff, so snapshot lookups see the emptiness instead of
// falling through to an older diff or the base: as a non-nil empty slice
// when the base has the group, as nil when it does not — a fold drops
// those that no older diff shadows (foldDiffs), since the base answers
// the same. Under churn that creates groups and later empties them, they
// are most of the diff.
func (tx *txn) setGroup(acKey, xk string, old, g []storage.IndexEntry) {
	m := tx.groups[acKey]
	if m == nil {
		m = make(map[string][]storage.IndexEntry)
		tx.groups[acKey] = m
		tx.from[acKey] = make(map[string]int)
	}
	if _, ok := m[xk]; !ok {
		tx.from[acKey][xk] = len(old)
	}
	m[xk] = g
}

// inBase reports whether the base the basis snapshot overlays has t's
// X-group under a constraint.
func (tx *txn) inBase(b acBinding, t value.Tuple) bool {
	idx, ok := tx.snap.base.AccessIndexByKey(b.key)
	return ok && len(idx.LookupAt(t, b.xPos)) > 0
}

// dups returns the ledger's positions of a pair as of the batch's
// progress: nil for a pair with fewer than two live occurrences.
func (tx *txn) dups(acKey, pk string) []int {
	if ps, ok := tx.ledger[acKey][pk]; ok {
		return ps
	}
	return tx.st.ledger[acKey][pk]
}

// setDups installs a pair's positions in the batch's overlay; fewer than
// two is recorded as nil, which commit turns into "no record".
func (tx *txn) setDups(acKey, pk string, ps []int) {
	m := tx.ledger[acKey]
	if m == nil {
		m = make(map[string][]int)
		tx.ledger[acKey] = m
	}
	if len(ps) < 2 {
		ps = nil
	}
	m[pk] = ps
}

// alive reports whether a position is live as of the batch's progress.
func (tx *txn) alive(rel string, pos int) bool {
	if tx.delNew[rel][pos] {
		return false
	}
	return !tx.snap.isDeleted(rel, pos)
}

// tupleAt reads a tuple by live position: base positions come from the
// basis snapshot's sealed base, added positions from the basis snapshot
// or from this batch's own inserts.
func (tx *txn) tupleAt(rel string, pos int) value.Tuple {
	base := tx.st.baseLen[rel]
	if pos < base {
		return tx.snap.base.MustRelation(rel).Tuples[pos]
	}
	i := pos - base
	prior := tx.snap.added[rel]
	if i < len(prior) {
		return prior[i]
	}
	return tx.addedNew[rel][i-len(prior)]
}

// checkStructure validates the caller-bug class of errors: the relation
// must exist and the tuple must match its arity.
func (tx *txn) checkStructure(op Op) error {
	rs, ok := tx.st.cat.Relation(op.Rel)
	if !ok {
		return fmt.Errorf("live: unknown relation %s", op.Rel)
	}
	if len(op.Tuple) != rs.Arity() {
		return fmt.Errorf("live: relation %s expects arity %d, got %d", op.Rel, rs.Arity(), len(op.Tuple))
	}
	return nil
}

// insert validates one insert against every constraint on its relation,
// then applies it to the workspace. Validation is complete before any
// mutation, so a rejected op leaves the workspace untouched (which is
// what lets Permissive mode skip it and keep going).
func (tx *txn) insert(op Op) error {
	if err := tx.checkStructure(op); err != nil {
		return err
	}
	t := op.Tuple
	binds := tx.st.byRel[op.Rel]

	// Validate: a constraint is at risk only when the tuple's (X, Y) pair
	// is new to its group — duplicates of a live pair never add a distinct
	// Y-value.
	for _, b := range binds {
		g := tx.group(b, t, value.KeyOf(t, b.xPos))
		if entryOf(g, t, b.yPos) < 0 && int64(len(g)+1) > b.ac.N {
			return &BoundError{AC: b.ac, XValue: t.Project(b.xPos), Tuple: t}
		}
	}

	// Apply: a new pair gets a group entry and no ledger record; a
	// duplicate gets a record — [witness, pos] on its second occurrence.
	pos := tx.st.baseLen[op.Rel] + len(tx.snap.added[op.Rel]) + len(tx.addedNew[op.Rel])
	for _, b := range binds {
		xk := value.KeyOf(t, b.xPos)
		g := tx.group(b, t, xk)
		i := entryOf(g, t, b.yPos)
		if i < 0 {
			ng := make([]storage.IndexEntry, len(g), len(g)+1)
			copy(ng, g)
			ng = append(ng, storage.IndexEntry{Witness: t, Pos: pos})
			tx.setGroup(b.key, xk, g, ng)
			continue
		}
		pk := pairKey(xk, t, b.yPos)
		ps := tx.dups(b.key, pk)
		if ps == nil {
			ps = []int{g[i].Pos}
		}
		// Appending past a committed slice's length leaves the committed
		// slice as it was, so this needs no copy.
		tx.setDups(b.key, pk, append(ps, pos))
	}
	tx.addedNew[op.Rel] = append(tx.addedNew[op.Rel], t)
	tx.applied = append(tx.applied, op)
	tx.nApplied++
	return nil
}

// delete removes one live occurrence of an exactly-equal tuple,
// maintaining every affected index group: a pair whose last occurrence
// goes away loses its entry; a pair that survives but loses its witness
// is re-witnessed to its first remaining live occurrence — the same
// choice a from-scratch index build over the surviving data would make,
// which keeps live groups structurally identical to Freeze'd ones.
func (tx *txn) delete(op Op) error {
	if err := tx.checkStructure(op); err != nil {
		return err
	}
	t := op.Tuple
	pos, ok := tx.findLive(op.Rel, t)
	if !ok {
		return &NotFoundError{Rel: op.Rel, Tuple: t}
	}

	for _, b := range tx.st.byRel[op.Rel] {
		xk := value.KeyOf(t, b.xPos)
		g := tx.group(b, t, xk)
		i := entryOf(g, t, b.yPos) // ≥ 0: the tuple is live, so its pair has an entry
		pk := pairKey(xk, t, b.yPos)
		ps := tx.dups(b.key, pk)
		if ps == nil {
			// Last occurrence: drop the pair's entry from the group.
			ng := slices.Delete(slices.Clone(g), i, i+1)
			if len(ng) == 0 && !tx.inBase(b, t) {
				ng = nil
			}
			tx.setGroup(b.key, xk, g, ng)
			continue
		}
		// The pair survives. The ledger holds exactly its live positions,
		// so what is left after this one starts with the next witness.
		rest := removePos(slices.Clone(ps), pos)
		if g[i].Pos == pos {
			ng := slices.Clone(g)
			ng[i] = storage.IndexEntry{Witness: tx.tupleAt(op.Rel, rest[0]), Pos: rest[0]}
			tx.setGroup(b.key, xk, g, ng)
		}
		tx.setDups(b.key, pk, rest)
	}

	m := tx.delNew[op.Rel]
	if m == nil {
		m = make(map[int]bool)
		tx.delNew[op.Rel] = m
	}
	m[pos] = true
	tx.applied = append(tx.applied, op)
	tx.nApplied++
	return nil
}

// candidates returns, in live order, the positions that can hold a live
// tuple equal to t. Where a constraint covers the relation they are the
// occurrences of t's pair under the relation's first constraint — the
// ledger's positions, else the one position the pair's group entry
// names. A relation no constraint covers has no group to look in and
// answers from the store's tuple map plus this batch's own inserts.
func (tx *txn) candidates(rel string, t value.Tuple) []int {
	if binds := tx.st.byRel[rel]; len(binds) > 0 {
		b := binds[0]
		xk := value.KeyOf(t, b.xPos)
		g := tx.group(b, t, xk)
		i := entryOf(g, t, b.yPos)
		if i < 0 {
			return nil
		}
		if ps := tx.dups(b.key, pairKey(xk, t, b.yPos)); ps != nil {
			return ps
		}
		return []int{g[i].Pos}
	}
	ps := tx.st.tupPos[rel][t.Key()]
	base := tx.st.baseLen[rel] + len(tx.snap.added[rel])
	for i, nt := range tx.addedNew[rel] {
		if nt.Equal(t) {
			ps = append(ps[:len(ps):len(ps)], base+i) // never into the store's array
		}
	}
	return ps
}

// findLive locates the first live position holding an exactly-equal
// tuple, in live order (base positions, then insertion order).
func (tx *txn) findLive(rel string, t value.Tuple) (int, bool) {
	for _, pos := range tx.candidates(rel, t) {
		if tx.alive(rel, pos) && tx.tupleAt(rel, pos).Equal(t) {
			return pos, true
		}
	}
	return 0, false
}

// maxChainDepth bounds how many epoch diffs a snapshot lookup may walk
// before hitting the base, whatever the write history: a commit that
// would chain deeper folds the youngest diffs into its own until it fits.
const maxChainDepth = 16

// commit folds the workspace into the writer state and publishes the next
// epoch. Called under the store's mutex. A batch with no effective ops
// (everything quarantined, or empty) publishes nothing — quarantined ops
// are then stamped with the unchanged current epoch.
func (st *Store) commit(tx *txn) uint64 {
	published := tx.snap.epoch
	if tx.nApplied > 0 {
		// Move each rewritten group's card from the size the basis served
		// to the size the new epoch serves, so the maintained counters stay
		// equal to a from-scratch recount of the live data.
		cards := *st.cards.Load()
		for acKey, m := range tx.groups {
			card := cards[acKey]
			for xk, g := range m {
				card.resize(int64(tx.from[acKey][xk]), int64(len(g)))
			}
		}
		for acKey, m := range tx.ledger {
			led := st.ledger[acKey]
			for pk, ps := range m {
				if ps == nil {
					delete(led, pk)
				} else {
					led[pk] = ps
				}
			}
		}
		// Constraint-less relations: extend the tuple map with the batch's
		// inserts and prune its deletes, so insert/delete churn cannot grow
		// it (or the delete-path scans over it) without bound. The prune
		// preserves list order: positions stay in live order.
		for rel, ts := range tx.addedNew {
			pos := st.tupPos[rel]
			if pos == nil {
				continue
			}
			base := st.baseLen[rel] + len(tx.snap.added[rel])
			for i, t := range ts {
				k := t.Key()
				pos[k] = append(pos[k], base+i)
			}
		}
		for rel, dm := range tx.delNew {
			pos := st.tupPos[rel]
			if pos == nil {
				continue
			}
			for p := range dm {
				tk := tx.tupleAt(rel, p).Key()
				if rest := removePos(pos[tk], p); len(rest) == 0 {
					delete(pos, tk)
				} else {
					pos[tk] = rest
				}
			}
		}

		next := tx.snapshot()
		st.applied.Add(tx.nApplied)
		// Words before the snapshot: whoever pins this epoch sees them.
		st.stampCommit(tx, next)
		st.cur.Store(next)
		st.lastCommit.Store(time.Now().UnixNano())
		published = next.epoch
	}

	if len(tx.quarantined) > 0 {
		for i := range tx.quarantined {
			tx.quarantined[i].Epoch = published
		}
		st.quarantine = append(st.quarantine, tx.quarantined...)
		st.quarantined.Add(int64(len(tx.quarantined)))
	}
	return published
}

// removePos removes one occurrence of pos from the list, preserving
// order; the backing array is writer-owned, never shared with snapshots.
func removePos(list []int, pos int) []int {
	for i, p := range list {
		if p == pos {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// snapshot builds the next epoch from the workspace: cumulative added /
// deleted / size views plus this batch's group diff, chained on the basis
// or flattened when the chain is deep.
func (tx *txn) snapshot() *Snapshot {
	snap, st := tx.snap, tx.st
	next := &Snapshot{
		st:        st,
		base:      snap.base,
		epoch:     snap.epoch + 1,
		numTuples: snap.numTuples,
		binds:     snap.binds,
		acc:       snap.acc,
	}

	// added: copy the per-relation map, extending touched relations. The
	// slices share backing across epochs; older snapshots read only their
	// own shorter prefix, so appends never affect them.
	next.added = make(map[string][]value.Tuple, len(snap.added)+len(tx.addedNew))
	for rel, ts := range snap.added {
		next.added[rel] = ts
	}
	for rel, ts := range tx.addedNew {
		next.added[rel] = append(next.added[rel], ts...)
	}

	// size: always a small map (one entry per relation).
	next.size = make(map[string]int64, len(snap.size))
	for rel, n := range snap.size {
		next.size[rel] = n
	}
	for rel, ts := range tx.addedNew {
		next.size[rel] += int64(len(ts))
		next.numTuples += int64(len(ts))
	}
	for rel, dm := range tx.delNew {
		next.size[rel] -= int64(len(dm))
		next.numTuples -= int64(len(dm))
	}

	next.chainOnto(snap, tx.groups, tx.delNew)
	return next
}

// chainOnto makes next the epoch after snap, carrying the given diff. The
// chain is kept like the digits of a binary counter: a node spans the
// commits folded into it, and a new commit (span 1) folds in every node
// below it whose span is no larger than what it holds so far. Spans
// therefore at least double down the chain, n commits make a chain of at
// most log2(n)+1 nodes, and a commit's entries are copied O(log n) times
// over the chain's life — what a commit costs does not grow with the
// write history since the last Compact. (Past 2^maxChainDepth commits the
// depth bound takes over and the doubling is given up.)
func (next *Snapshot) chainOnto(snap *Snapshot, groups map[string]map[string][]storage.IndexEntry, dels map[string]map[int]bool) {
	next.span = 1
	keep := snap
	for keep != nil && (keep.span <= next.span || keep.depth >= maxChainDepth) {
		next.span += keep.span
		keep = keep.parent
	}
	if keep != snap {
		groups, dels = foldDiffs(snap, keep, groups, dels)
		next.st.flattens.Add(1)
	}
	next.groups, next.delDiff, next.parent = groups, dels, keep
	if keep != nil {
		next.depth = keep.depth + 1
	}
}

// foldDiffs merges the group and tombstone diffs of the chain from snap
// down to, and not including, stop with the committing batch's into single
// diffs (for groups, the youngest writer of each group wins), so the new
// snapshot reads them in one hop.
func foldDiffs(snap, stop *Snapshot, topGroups map[string]map[string][]storage.IndexEntry, topDels map[string]map[int]bool) (map[string]map[string][]storage.IndexEntry, map[string]map[int]bool) {
	var chain []*Snapshot
	for s := snap; s != stop; s = s.parent {
		chain = append(chain, s)
	}
	flatG := make(map[string]map[string][]storage.IndexEntry)
	flatD := make(map[string]map[int]bool)
	mergeG := func(diff map[string]map[string][]storage.IndexEntry) {
		for acKey, m := range diff {
			fm := flatG[acKey]
			if fm == nil {
				fm = make(map[string][]storage.IndexEntry, len(m))
				flatG[acKey] = fm
			}
			for xk, g := range m {
				fm[xk] = g
			}
		}
	}
	mergeD := func(diff map[string]map[int]bool) {
		for rel, m := range diff {
			fm := flatD[rel]
			if fm == nil {
				fm = make(map[int]bool, len(m))
				flatD[rel] = fm
			}
			for p := range m {
				fm[p] = true
			}
		}
	}
	for i := len(chain) - 1; i >= 0; i-- { // oldest first
		mergeG(chain[i].groups)
		mergeD(chain[i].delDiff)
	}
	mergeG(topGroups)
	mergeD(topDels)
	for acKey, fm := range flatG {
		flatG[acKey] = withoutGone(fm, acKey, stop)
	}
	return flatG, flatD
}

// withoutGone drops from a folded group diff the nil groups (see
// setGroup) that shadow nothing: no diff from older down to the base
// holds a non-empty group under the same key, so they read the same
// without an entry. Every fold does this, not only one that reaches the
// base, so that what the diffs hold follows the groups that exist and
// not how many commits have passed since the last power of two. What is
// left is copied into a map of its own size — deleting in place would
// keep the buckets.
func withoutGone(m map[string][]storage.IndexEntry, acKey string, older *Snapshot) map[string][]storage.IndexEntry {
	gone := func(xk string, g []storage.IndexEntry) bool {
		if g != nil {
			return false
		}
		for cur := older; cur != nil; cur = cur.parent {
			if og, ok := cur.groups[acKey][xk]; ok {
				return len(og) == 0
			}
		}
		return true
	}
	n := 0
	for xk, g := range m {
		if !gone(xk, g) {
			n++
		}
	}
	if n == len(m) {
		return m
	}
	out := make(map[string][]storage.IndexEntry, n)
	for xk, g := range m {
		if !gone(xk, g) {
			out[xk] = g
		}
	}
	return out
}
