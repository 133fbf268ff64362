package live

import (
	"fmt"
	"iter"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// Snapshot is one pinned epoch of a live store: an immutable, fully
// consistent view of the data. It satisfies the executor's Store
// interface, so bounded evaluation runs against a snapshot exactly as it
// runs against a sealed database — readers pin one snapshot per
// evaluation and are unaffected by concurrent commits.
//
// Access-index reads look the X-group up in the constraint's trie (one
// hash, one walk from the root, trie.go) and fall through to the base
// index. Row reads merge the base tuples with the epoch's additions minus
// its tombstones.
type Snapshot struct {
	st *Store
	// base is the sealed database this epoch's overlay covers. Usually the
	// store's original base; after a Compact, newer epochs overlay the
	// compacted one while pinned older snapshots keep theirs.
	base  *storage.Database
	epoch uint64

	// binds and acc freeze the access schema of this epoch: the bindings
	// the read path resolves constraints through and the schema value a
	// Freeze rebuild indexes under. They are immutable maps/values shared
	// across epochs and replaced wholesale by ExtendAccess, so a snapshot
	// pinned before an extension keeps serving (and erroring) exactly as
	// the schema stood at its epoch.
	binds map[string]acBinding
	acc   *schema.AccessSchema

	// idx and roots are indexed by binding ordinal (acBinding.ord). idx is
	// the base's index of each constraint (nil when the base has none: an
	// ExtendAccess since the last Compact); it changes only with the base
	// or the schema, so epochs share the slice. roots is each constraint's
	// trie of the groups written since the base (nil: none, and every
	// probe is a base lookup). A group emptied that the base has stays in
	// the trie, empty, to shadow the base's; one the base lacks leaves it.
	idx   []*storage.AccessIndex
	roots []*trieNode

	// rels holds each relation's cumulative view since the base, by
	// catalog ordinal (Store.relOrd). A commit clones the slice and
	// rewrites the entries of the relations it touched.
	rels []relState

	numTuples int64
}

// relState is one relation's cumulative view at an epoch: every live
// insertion and every tombstoned position since the base — both slices
// share backing across epochs, each epoch reading only its own prefix, so
// a commit appends past what pinned snapshots read — and the live tuple
// count.
type relState struct {
	added []value.Tuple
	dead  []int
	size  int64
}

// Epoch returns the snapshot's epoch number (0 = the pristine base).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// EpochKey names the exact data version this snapshot serves, for display
// and for the "epoch" of a response (epochs are unique per store,
// monotonic across commits, compactions and schema extensions).
func (s *Snapshot) EpochKey() string { return string(s.AppendEpochKey(nil)) }

// Store returns the live store the snapshot was pinned from.
func (s *Snapshot) Store() *Store { return s.st }

// Access returns the access schema as it stood at this epoch — the
// schema a Freeze rebuild indexes under, unaffected by later
// ExtendAccess calls on the store.
func (s *Snapshot) Access() *schema.AccessSchema { return s.acc }

// NumTuples returns |D| at this epoch: live tuples across all relations.
func (s *Snapshot) NumTuples() int64 { return s.numTuples }

// Size returns the live tuple count of one relation.
func (s *Snapshot) Size(rel string) (int64, error) {
	ord, ok := s.st.relOrd[rel]
	if !ok {
		return 0, fmt.Errorf("live: unknown relation %s", rel)
	}
	return s.rels[ord].size, nil
}

// resolver is one constraint resolved at a snapshot, for a batch of
// probes: the base index, and the constraint's trie with its hash seed.
type resolver struct {
	idx  *storage.AccessIndex // nil: the base has no index of it (ExtendAccess)
	root *trieNode
	seed uint64
}

// resolve resolves a constraint at this epoch; false when the epoch's
// schema does not maintain it.
func (s *Snapshot) resolve(acKey string) (resolver, bool) {
	b, ok := s.binds[acKey]
	if !ok {
		return resolver{}, false
	}
	return s.resolver(b), true
}

// resolver resolves a binding of this epoch's schema.
func (s *Snapshot) resolver(b acBinding) resolver {
	return resolver{idx: s.idx[b.ord], root: s.roots[b.ord], seed: b.seed}
}

// at returns the X-group of the value t holds at pos (t itself when pos is
// nil): the trie's, when the writes since the base rewrote the group,
// otherwise the base index's. The X-key is encoded, into a buffer on the
// stack, only when the constraint has a trie; the base is probed with the
// values themselves.
func (r *resolver) at(t value.Tuple, pos []int) []storage.IndexEntry {
	if r.root != nil {
		var kb [value.KeyBufSize]byte
		var xk []byte
		if pos == nil {
			xk = t.AppendKey(kb[:0])
		} else {
			xk = value.AppendKeyOf(kb[:0], t, pos)
		}
		if g, ok := r.root.get(groupHash(r.seed, xk), xk); ok {
			return g
		}
	}
	switch {
	case r.idx == nil:
		return nil
	case pos == nil:
		return r.idx.Lookup(t)
	default:
		return r.idx.LookupAt(t, pos)
	}
}

// Fetch probes the access index of a constraint with an X-value at this
// epoch, returning the distinct Y-entries (at most N). Counts one index
// lookup and one fetched tuple per entry into the store's read counters.
// Callers must not mutate the returned slice.
func (s *Snapshot) Fetch(ac schema.AccessConstraint, xVals value.Tuple) ([]storage.IndexEntry, error) {
	r, ok := s.resolve(ac.Key())
	if !ok {
		return nil, fmt.Errorf("live: no index maintained for constraint %s", ac)
	}
	if len(xVals) != len(ac.X) {
		return nil, fmt.Errorf("live: constraint %s expects %d lookup values, got %d", ac, len(ac.X), len(xVals))
	}
	entries := r.at(xVals, nil)
	s.st.lookups.Add(1)
	s.st.fetched.Add(int64(len(entries)))
	rc := s.st.relCounters(ac.Rel)
	rc.lookups.Add(1)
	rc.fetched.Add(int64(len(entries)))
	return entries, nil
}

// FetchBatch probes the access index once per X-tuple, returning entry
// groups aligned with xs (exec.Store). The constraint is resolved once for
// the batch; when it has no trie — nothing has written to it since the
// last Compact — the batch is a plain run of base index lookups.
// A probe of the wrong arity fails the whole batch. Counts one index
// lookup per probe and one fetched tuple per entry. Callers must not
// mutate the returned entry slices.
func (s *Snapshot) FetchBatch(ac schema.AccessConstraint, xs []value.Tuple) ([][]storage.IndexEntry, error) {
	r, ok := s.resolve(ac.Key())
	if !ok {
		return nil, fmt.Errorf("live: no index maintained for constraint %s", ac)
	}
	for _, x := range xs {
		if len(x) != len(ac.X) {
			return nil, fmt.Errorf("live: constraint %s expects %d lookup values, got %d", ac, len(ac.X), len(x))
		}
	}
	out := make([][]storage.IndexEntry, len(xs))
	var fetched int64
	if r.root == nil && r.idx != nil {
		for i, x := range xs {
			out[i] = r.idx.Lookup(x)
			fetched += int64(len(out[i]))
		}
	} else {
		for i, x := range xs {
			out[i] = r.at(x, nil)
			fetched += int64(len(out[i]))
		}
	}
	s.st.lookups.Add(int64(len(xs)))
	s.st.fetched.Add(fetched)
	rc := s.st.relCounters(ac.Rel)
	rc.lookups.Add(int64(len(xs)))
	rc.fetched.Add(fetched)
	return out, nil
}

// NonEmpty reports whether a relation has at least one live tuple at this
// epoch (exec.Store). O(1); counts one fetched tuple when non-empty.
func (s *Snapshot) NonEmpty(rel string) (bool, error) {
	n, err := s.Size(rel)
	if err != nil {
		return false, err
	}
	if n == 0 {
		return false, nil
	}
	s.st.fetched.Add(1)
	s.st.relCounters(rel).fetched.Add(1)
	return true, nil
}

// all is the live tuples of a relation, keyed by live position, in live
// order — base positions ascending, then insertions in commit order —
// without access accounting. The relation must be one of the catalog's.
func (s *Snapshot) all(rel string) iter.Seq2[int, value.Tuple] {
	return func(yield func(int, value.Tuple) bool) {
		tuples := s.base.MustRelation(rel).Tuples
		rs := s.rels[s.st.relOrd[rel]]
		added := rs.added
		var dead []uint64 // a bitset of the tombstoned positions
		if ps := rs.dead; len(ps) > 0 {
			dead = make([]uint64, (len(tuples)+len(added)+63)/64)
			for _, p := range ps {
				dead[p/64] |= 1 << (p % 64)
			}
		}
		live := func(pos int) bool { return dead == nil || dead[pos/64]&(1<<(pos%64)) == 0 }
		for pos, t := range tuples {
			if live(pos) && !yield(pos, t) {
				return
			}
		}
		for i, t := range added {
			if pos := len(tuples) + i; live(pos) && !yield(pos, t) {
				return
			}
		}
	}
}

// Scan iterates every live tuple of a relation, counting each against
// the store's scan statistics. Positions are live positions: stable
// across epochs, unique per occurrence, not contiguous once tuples have
// been deleted.
func (s *Snapshot) Scan(rel string, f func(pos int, t value.Tuple) bool) error {
	if _, err := s.base.Relation(rel); err != nil {
		return err
	}
	rc := s.st.relCounters(rel)
	for pos, t := range s.all(rel) {
		s.st.scanned.Add(1)
		rc.scanned.Add(1)
		if !f(pos, t) {
			break
		}
	}
	return nil
}

// Tuples materializes the live tuples of a relation, in live order,
// without access accounting.
func (s *Snapshot) Tuples(rel string) ([]value.Tuple, error) {
	n, err := s.Size(rel)
	if err != nil {
		return nil, err
	}
	out := make([]value.Tuple, 0, n)
	for _, t := range s.all(rel) {
		out = append(out, t)
	}
	return out, nil
}

// Freeze materializes the snapshot as a fresh sealed database: every
// live tuple inserted in live order, indexes built for the store's
// access schema. Because the store keeps D |= A invariant, Freeze cannot
// hit a constraint violation; an error reports a bug. Freeze is how a
// snapshot leaves the live layer — for offline analysis, for baseline
// comparison, or as the compacted base of a new live store.
func (s *Snapshot) Freeze() (*storage.Database, error) {
	db := storage.NewDatabase(s.st.cat)
	for ord, rs := range s.st.cat.Relations() {
		db.MustRelation(rs.Name()).Tuples = make([]value.Tuple, 0, s.rels[ord].size)
		for _, t := range s.all(rs.Name()) {
			if err := db.Insert(rs.Name(), t); err != nil {
				return nil, err
			}
		}
	}
	if err := db.BuildIndexes(s.acc); err != nil {
		return nil, fmt.Errorf("live: frozen snapshot violates the access schema (live-store bug): %w", err)
	}
	return db, nil
}
