package live

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"bcq/internal/storage"
	"bcq/internal/value"
)

// txn is the workspace of one batch (see Staged). It buffers every
// effect — copy-on-write index groups, new tuples, tombstones, touched
// ledger entries — against the basis snapshot, so an aborted batch leaves
// no trace and a committed one becomes exactly what the next epoch adds.
// It runs under the store's writer mutex.
type txn struct {
	st   *Store
	snap *Snapshot

	// groups are the X-groups this batch rewrote, per binding ordinal:
	// xKey → the group as the new epoch will serve it, copied from the
	// basis (or base index) on first touch.
	groups []map[string]rewrite
	// addedNew are the tuples this batch inserts, per relation by catalog
	// ordinal, in order; their positions follow the basis snapshot's added
	// tuples.
	addedNew [][]value.Tuple
	// delNew are the positions this batch tombstones, per relation by
	// catalog ordinal.
	delNew []map[int]bool
	// ledger overlays the store's ledger with the entries this batch
	// touched: acKey → pairKey → the pair's positions as of the batch's
	// progress, nil once the pair is back to fewer than two occurrences.
	ledger map[string]map[string][]int
	// ops is the batch. Staging validates every op or fails, so a staged
	// batch takes effect whole.
	ops []Op
}

// rewrite is one group a batch rewrote: its entries as the new epoch
// serves them (nil: emptied, and absent from the base — see
// txn.setGroup), and the size the basis served it at, which commit moves
// its card from.
type rewrite struct {
	g    []storage.IndexEntry
	from int
}

func newTxn(st *Store, snap *Snapshot, ops []Op) txn {
	return txn{
		st:       st,
		snap:     snap,
		ops:      ops,
		groups:   make([]map[string]rewrite, len(snap.roots)),
		addedNew: make([][]value.Tuple, len(snap.rels)),
		delNew:   make([]map[int]bool, len(snap.rels)),
		ledger:   make(map[string]map[string][]int),
	}
}

// group returns the batch's working copy of t's X-group under a
// constraint, whose X-key xk the caller has encoded, reading it from the
// basis snapshot (which falls through to the base index) until the batch
// rewrites it.
func (tx *txn) group(b acBinding, t value.Tuple, xk string) []storage.IndexEntry {
	if w, ok := tx.groups[b.ord][xk]; ok {
		return w.g
	}
	r := tx.snap.resolver(b)
	return r.at(t, b.xPos)
}

// setGroup installs the batch's rewrite of group old. An emptied group
// the base has is a non-nil empty slice, which stays in the trie and
// hides the base's; one the base lacks is nil, which takes the group out
// of the trie (trieNode.with), where the base answers the same. Churn
// that creates groups and later empties them so leaves nothing behind.
func (tx *txn) setGroup(b acBinding, xk string, old, g []storage.IndexEntry) {
	m := tx.groups[b.ord]
	if m == nil {
		m = make(map[string]rewrite)
		tx.groups[b.ord] = m
	}
	w, ok := m[xk]
	if !ok {
		w.from = len(old)
	}
	w.g = g
	m[xk] = w
}

// inBase reports whether the base the basis snapshot overlays has t's
// X-group under a constraint.
func (tx *txn) inBase(b acBinding, t value.Tuple) bool {
	idx := tx.snap.idx[b.ord]
	return idx != nil && len(idx.LookupAt(t, b.xPos)) > 0
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

// alive reports whether a candidate position (txn.candidates) is live as
// of the batch's progress. The candidates never name a position an
// earlier commit deleted — the ledger and the group entries hold live
// positions only, and commit prunes the tuple map — so only this batch's
// own tombstones, a set the writer alone owns, can rule one out.
func (tx *txn) alive(ord, pos int) bool {
	return !tx.delNew[ord][pos]
}

// tupleAt reads a tuple of the relation of ordinal ord by live position:
// base positions come from the basis snapshot's sealed base, added
// positions from the basis snapshot or from this batch's own inserts.
func (tx *txn) tupleAt(ord, pos int) value.Tuple {
	base := tx.st.baseLen[ord]
	if pos < base {
		return tx.snap.base.MustRelation(tx.st.cat.Relations()[ord].Name()).Tuples[pos]
	}
	i := pos - base
	prior := tx.snap.rels[ord].added
	if i < len(prior) {
		return prior[i]
	}
	return tx.addedNew[ord][i-len(prior)]
}

// relation resolves an op's relation to its catalog ordinal, once per op,
// and validates the caller-bug class of errors: the relation must exist
// and the tuple must match its arity.
func (tx *txn) relation(op Op) (int, error) {
	ord, ok := tx.st.relOrd[op.Rel]
	if !ok {
		return 0, fmt.Errorf("live: unknown relation %s", op.Rel)
	}
	if rs := tx.st.cat.Relations()[ord]; len(op.Tuple) != rs.Arity() {
		return 0, fmt.Errorf("live: relation %s expects arity %d, got %d", op.Rel, rs.Arity(), len(op.Tuple))
	}
	return ord, nil
}

// insert validates one insert against every constraint on its relation,
// then applies it to the workspace. Validation is complete before any
// mutation, so a rejected op leaves the workspace untouched.
func (tx *txn) insert(op Op) error {
	ord, err := tx.relation(op)
	if err != nil {
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
	pos := tx.st.baseLen[ord] + len(tx.snap.rels[ord].added) + len(tx.addedNew[ord])
	for _, b := range binds {
		xk := value.KeyOf(t, b.xPos)
		g := tx.group(b, t, xk)
		i := entryOf(g, t, b.yPos)
		if i < 0 {
			ng := make([]storage.IndexEntry, len(g), len(g)+1)
			copy(ng, g)
			ng = append(ng, storage.IndexEntry{Witness: t, Pos: pos})
			tx.setGroup(b, xk, g, ng)
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
	tx.addedNew[ord] = append(tx.addedNew[ord], t)
	return nil
}

// delete removes one live occurrence of an exactly-equal tuple,
// maintaining every affected index group: a pair whose last occurrence
// goes away loses its entry; a pair that survives but loses its witness
// is re-witnessed to its first remaining live occurrence — the same
// choice a from-scratch index build over the surviving data would make,
// which keeps live groups structurally identical to Freeze'd ones.
func (tx *txn) delete(op Op) error {
	ord, err := tx.relation(op)
	if err != nil {
		return err
	}
	t := op.Tuple
	pos, ok := tx.findLive(op.Rel, ord, t)
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
			tx.setGroup(b, xk, g, ng)
			continue
		}
		// The pair survives. The ledger holds exactly its live positions,
		// so what is left after this one starts with the next witness.
		rest := removePos(slices.Clone(ps), pos)
		if g[i].Pos == pos {
			ng := slices.Clone(g)
			ng[i] = storage.IndexEntry{Witness: tx.tupleAt(ord, rest[0]), Pos: rest[0]}
			tx.setGroup(b, xk, g, ng)
		}
		tx.setDups(b.key, pk, rest)
	}

	m := tx.delNew[ord]
	if m == nil {
		m = make(map[int]bool)
		tx.delNew[ord] = m
	}
	m[pos] = true
	return nil
}

// candidates returns, in live order, the positions that can hold a live
// tuple equal to t. Where a constraint covers the relation they are the
// occurrences of t's pair under the relation's first constraint — the
// ledger's positions, else the one position the pair's group entry
// names. A relation no constraint covers has no group to look in and
// answers from the store's tuple map plus this batch's own inserts. The
// relation is named and given by its ordinal.
func (tx *txn) candidates(rel string, ord int, t value.Tuple) []int {
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
	ps := tx.st.tupPos[ord][t.Key()]
	base := tx.st.baseLen[ord] + len(tx.snap.rels[ord].added)
	for i, nt := range tx.addedNew[ord] {
		if nt.Equal(t) {
			ps = append(ps[:len(ps):len(ps)], base+i) // never into the store's array
		}
	}
	return ps
}

// findLive locates the first live position holding an exactly-equal
// tuple, in live order (base positions, then insertion order).
func (tx *txn) findLive(rel string, ord int, t value.Tuple) (int, bool) {
	for _, pos := range tx.candidates(rel, ord, t) {
		if tx.alive(ord, pos) && tx.tupleAt(ord, pos).Equal(t) {
			return pos, true
		}
	}
	return 0, false
}

// commit folds the workspace into the writer state and publishes the next
// epoch. Called under the store's mutex. An empty batch publishes
// nothing.
func (st *Store) commit(tx *txn) uint64 {
	if len(tx.ops) == 0 {
		return tx.snap.epoch
	}
	next := tx.snapshot()
	// Per rewritten group: move its card from the size the basis
	// served to the size the new epoch serves, so the maintained
	// counters stay equal to a from-scratch recount of the live data;
	// stamp its version word; and put it in the constraint's trie.
	cards := *st.cards.Load()
	var edits []trieEdit
	for ord, m := range tx.groups {
		if m == nil {
			continue
		}
		b := st.byOrd[ord]
		card := cards[b.key]
		edits = edits[:0]
		for xk, w := range m {
			card.resize(int64(w.from), int64(len(w.g)))
			h := groupHash(b.seed, xk)
			st.words[groupWord(h)].Store(next.epoch)
			edits = append(edits, trieEdit{hash: h, key: xk, group: w.g})
		}
		next.roots[ord] = next.roots[ord].with(edits, 0, b.seed)
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
	for ord, ts := range tx.addedNew {
		pos := st.tupPos[ord]
		if pos == nil {
			continue
		}
		base := st.baseLen[ord] + len(tx.snap.rels[ord].added)
		for i, t := range ts {
			k := t.Key()
			pos[k] = append(pos[k], base+i)
		}
	}
	for ord, dm := range tx.delNew {
		pos := st.tupPos[ord]
		if pos == nil {
			continue
		}
		for p := range dm {
			tk := tx.tupleAt(ord, p).Key()
			if rest := removePos(pos[tk], p); len(rest) == 0 {
				delete(pos, tk)
			} else {
				pos[tk] = rest
			}
		}
	}

	st.applied.Add(int64(len(tx.ops)))
	// Words before the snapshot: whoever pins this epoch sees them.
	st.stampRelations(tx, next)
	st.cur.Store(next)
	st.lastCommit.Store(time.Now().UnixNano())
	return next.epoch
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

// snapshot builds the next epoch from the workspace: the relations'
// cumulative views, one small slice cloned and the touched entries
// extended, and the basis's tries, which commit then rewrites.
func (tx *txn) snapshot() *Snapshot {
	snap, st := tx.snap, tx.st
	next := &Snapshot{
		st:        st,
		base:      snap.base,
		epoch:     snap.epoch + 1,
		numTuples: snap.numTuples,
		binds:     snap.binds,
		acc:       snap.acc,
		idx:       snap.idx,
		roots:     slices.Clone(snap.roots),
		rels:      slices.Clone(snap.rels),
	}
	// The added and dead slices share backing across epochs; older
	// snapshots read only their own shorter prefix, so appends never
	// affect them.
	for ord, ts := range tx.addedNew {
		r := &next.rels[ord]
		r.added = append(r.added, ts...)
		r.size += int64(len(ts))
		next.numTuples += int64(len(ts))
	}
	for ord, dm := range tx.delNew {
		if len(dm) == 0 {
			continue
		}
		r := &next.rels[ord]
		start := len(r.dead)
		r.dead = slices.AppendSeq(r.dead, maps.Keys(dm))
		slices.Sort(r.dead[start:])
		r.size -= int64(len(dm))
		next.numTuples -= int64(len(dm))
	}
	return next
}
