package live

import (
	"fmt"
	"slices"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// ExtendAccess widens the store's access schema with one more constraint
// X → (Y, N) at runtime: the schema evolution path that can turn a query
// the engine rejected as not effectively bounded into an answerable one
// without rebuilding the store.
//
// The extension is checked before it is published: every live (X, Y)
// pair of the relation is scanned (one pass over the live data — the
// same cost class as building the index offline) and a group that
// already exceeds N fails the call with a *storage.ViolationError,
// leaving the store untouched. On success the constraint's complete
// group map is published as its trie in a fresh epoch — the sealed base
// has no index for the new constraint, so every lookup resolves in the
// trie, which by construction reflects exactly the live data (base minus
// tombstones plus insertions).
//
// Snapshots pinned before the extension keep the schema of their epoch:
// they neither serve the new constraint (Fetch reports it unmaintained)
// nor break, because each snapshot carries its own binding map. The
// published epoch advances the store's Version, which is what lets the
// engine retry cached preparation errors.
//
// Extending with a constraint already in the schema is a no-op. A shard
// of a durable sharded store refuses it (see NewShard).
func (st *Store) ExtendAccess(ac schema.AccessConstraint) error {
	if st.w != nil {
		return errSharedLog
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	ext, err := st.buildExtension(ac)
	if err != nil || ext == nil {
		return err
	}
	return st.publishExtension(ac, ext)
}

// StageExtension validates an extension and returns it ready to
// publish, without changing any state — or (nil, nil) when the
// constraint is already maintained. Commit publishes it, provided the
// store has not advanced in between. The sharded store uses the pair
// to validate every shard before committing any, paying the live-data
// scan once instead of twice.
func (st *Store) StageExtension(ac schema.AccessConstraint) (*StagedExtension, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ext, err := st.buildExtension(ac)
	if err != nil || ext == nil {
		return nil, err
	}
	return &StagedExtension{st: st, ac: ac, ext: ext, epoch: st.cur.Load().epoch}, nil
}

// StagedExtension is a validated, not-yet-published schema extension.
type StagedExtension struct {
	st    *Store
	ac    schema.AccessConstraint
	ext   *extension
	epoch uint64
}

// Epoch returns the epoch Commit publishes.
func (se *StagedExtension) Epoch() uint64 { return se.epoch + 1 }

// Commit publishes the staged extension. It fails — without changing
// state — when the store has advanced past the epoch the extension was
// validated at (the scan's verdict could be stale); re-stage in that
// case. Callers that exclude writers for the stage-commit span (the
// sharded store) cannot hit that failure.
func (se *StagedExtension) Commit() error {
	st := se.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if cur := st.cur.Load(); cur.epoch != se.epoch {
		return fmt.Errorf("live: store advanced from epoch %d to %d since the extension was staged; stage it again", se.epoch, cur.epoch)
	}
	if _, ok := st.byKey[se.ac.Key()]; ok {
		return nil
	}
	return st.publishExtension(se.ac, se.ext)
}

// publishExtension installs a validated extension as the next epoch.
// Called under mu.
func (st *Store) publishExtension(ac schema.AccessConstraint, ext *extension) error {
	cs := append([]schema.AccessConstraint{}, st.acc.Load().Constraints()...)
	newAcc, err := schema.NewAccessSchema(append(cs, ac)...)
	if err != nil {
		return fmt.Errorf("live: extending access schema: %w", err)
	}
	newByKey := make(map[string]acBinding, len(st.byKey)+1)
	for k, b := range st.byKey {
		newByKey[k] = b
	}
	newByKey[ext.bind.key] = ext.bind

	cur := st.cur.Load()
	edits := make([]trieEdit, 0, len(ext.groups))
	for xk, g := range ext.groups {
		edits = append(edits, trieEdit{hash: groupHash(ext.bind.seed, xk), key: xk, group: g})
	}
	next := &Snapshot{
		st:        st,
		base:      cur.base,
		epoch:     cur.epoch + 1,
		rels:      cur.rels,
		numTuples: cur.numTuples,
		binds:     newByKey,
		acc:       newAcc,
		idx:       append(slices.Clip(cur.idx), nil),
		roots:     append(slices.Clip(cur.roots), (*trieNode)(nil).with(edits, 0, ext.bind.seed)),
	}

	st.byKey = newByKey
	if len(st.byRel[ac.Rel]) == 0 {
		// First constraint on the relation: deletes now find tuples through
		// its groups, so the relation's tuple map goes.
		st.tupPos[st.relOrd[ac.Rel]] = nil
	}
	st.byRel[ac.Rel] = append(st.byRel[ac.Rel], ext.bind)
	st.byOrd = append(st.byOrd, ext.bind)
	st.ledger[ext.bind.key] = ext.ledger
	// Publish the new constraint's cardinality card, built from the
	// scanned group map, alongside the existing cards (copy-on-write so
	// lock-free CardStats readers never see a partial map).
	card := newACCard()
	for _, g := range ext.groups {
		card.resize(0, int64(len(g)))
	}
	oldCards := *st.cards.Load()
	newCards := make(map[string]*acCard, len(oldCards)+1)
	for k, c := range oldCards {
		newCards[k] = c
	}
	newCards[ext.bind.key] = card
	st.cards.Store(&newCards)
	// The version words go before the snapshot, as a commit's do.
	st.raiseWords(next.epoch)
	// Publication order matters twice over. The snapshot goes first: a
	// reader that saw the new schema and planned with the new constraint
	// must find the constraint's binds in whatever snapshot it pins next
	// (binds only grow, so the converse — an old-schema plan on the new
	// snapshot — is always safe). The schema goes before the version
	// counter: SchemaVersion's contract is that a version-then-schema
	// reader can never pair the new version with the old schema.
	st.cur.Store(next)
	st.acc.Store(newAcc)
	st.extensions.Add(1)
	return nil
}

// extension is the workspace of one validated ExtendAccess: the
// constraint's binding, its complete live group map and its sparse
// ledger (see Store.ledger), ready to publish.
type extension struct {
	bind   acBinding
	groups map[string][]storage.IndexEntry
	ledger map[string][]int
}

// buildExtension validates the constraint and scans the live data into
// an extension: the same index build a sealed relation gets
// (storage.ScanAccessIndex), read over the snapshot's live tuples, with
// the ledger read off it. It returns (nil, nil) when the constraint is
// already maintained. Called under mu.
func (st *Store) buildExtension(ac schema.AccessConstraint) (*extension, error) {
	if err := ac.Validate(st.cat); err != nil {
		return nil, fmt.Errorf("live: extending access schema: %w", err)
	}
	if _, ok := st.byKey[ac.Key()]; ok {
		return nil, nil
	}
	rs, ok := st.cat.Relation(ac.Rel)
	if !ok {
		return nil, fmt.Errorf("live: unknown relation %s", ac.Rel)
	}
	bind, err := newBinding(rs, ac, len(st.byOrd))
	if err != nil {
		return nil, err
	}
	snap := st.cur.Load()
	idx, err := storage.ScanAccessIndex(rs, ac, snap.all(ac.Rel), int(snap.rels[st.relOrd[ac.Rel]].size))
	if err != nil {
		return nil, err
	}
	groups := make(map[string][]storage.IndexEntry, idx.NumGroups())
	for g := range idx.Groups() {
		groups[value.KeyOf(g[0].Witness(), bind.xPos)] = g
	}
	return &extension{bind: bind, groups: groups, ledger: ledgerOf(idx, bind, snap.all(ac.Rel))}, nil
}
