// Package live is the mutable layer over the sealed storage engine: it
// accepts Inserts and Deletes while readers keep the exactness and
// bounded-access guarantees of evalDQ.
//
// The paper's boundedness guarantee holds only while D |= A, and
// internal/storage enforces that by sealing a database once its access
// indices are built. A live Store keeps the sealed database as an
// immutable base and layers epoch-versioned snapshots on top:
//
//   - every write batch is checked against the access schema before it
//     touches anything — an insert that would push an X-group of some
//     constraint X → (Y, N) past its bound N rejects the whole batch, so
//     D |= A stays invariant and every cached plan stays sound without
//     invalidation;
//   - accepted batches maintain the access-constraint indices
//     incrementally: only the touched X-groups are copied and rewritten
//     (copy-on-write), never the whole index;
//   - a batch commits atomically by publishing a new Snapshot through an
//     atomic pointer. Readers pin the current snapshot and evaluate
//     against it alone: they never block writers, writers never block
//     readers, and a pinned snapshot is immutable forever.
//
// A snapshot holds, per constraint, one persistent hash trie of the
// groups written since the base (trie.go); lookups walk it once and fall
// through to the base index. A commit path-copies the trie nodes above
// the groups it rewrote and shares the rest, so neither read nor commit
// cost grows with the write history.
//
// Writers are serialized by a mutex (single-writer, many-reader — the
// HTAP split Polynesia frames as "updates must not break analytical
// reads"). A batch is all-or-nothing.
package live

import (
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bcq/internal/obs"
	"bcq/internal/schema"
	"bcq/internal/segment"
	"bcq/internal/stats"
	"bcq/internal/storage"
	"bcq/internal/value"
	"bcq/internal/wal"
)

// Options tunes a Store. It has no fields.
//
// Deprecated: New takes no options; the type stays while the benchmark
// harness names it, and goes with New's last caller outside shard.
type Options struct{}

// ErrBound is the sentinel matched by errors.Is when a write is rejected
// because it would push an access-constraint group past its bound N,
// breaking D |= A. The concrete error is a *BoundError.
var ErrBound = errors.New("write would violate an access constraint")

// BoundError reports the constraint a rejected insert would have
// violated.
type BoundError struct {
	// AC is the violated constraint X → (Y, N).
	AC schema.AccessConstraint
	// XValue is the group that is already at its bound.
	XValue value.Tuple
	// Tuple is the rejected tuple.
	Tuple value.Tuple
}

func (e *BoundError) Error() string {
	return fmt.Sprintf("live: inserting %s into %s would give X-value %s more than %d distinct Y-values (constraint %s)",
		e.Tuple, e.AC.Rel, e.XValue, e.AC.N, e.AC)
}

// Unwrap makes errors.Is(err, ErrBound) match.
func (e *BoundError) Unwrap() error { return ErrBound }

// ErrNoSuchTuple is the sentinel matched by errors.Is when a Delete names
// a tuple with no live occurrence. The concrete error is a
// *NotFoundError.
var ErrNoSuchTuple = errors.New("no live occurrence of the tuple")

// NotFoundError reports a delete whose target tuple is not in the live
// data.
type NotFoundError struct {
	Rel   string
	Tuple value.Tuple
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("live: relation %s has no live occurrence of %s", e.Rel, e.Tuple)
}

// Unwrap makes errors.Is(err, ErrNoSuchTuple) match.
func (e *NotFoundError) Unwrap() error { return ErrNoSuchTuple }

// Op is one write operation of a batch and OpKind its kind. They are the
// write-ahead log's own types: a committed batch is logged, and a logged
// record replayed, as the slice it already is.
type (
	Op     = wal.Op
	OpKind = wal.OpKind
)

const (
	// OpInsert adds one occurrence of a tuple (bag semantics).
	OpInsert = wal.OpInsert
	// OpDelete removes one live occurrence of an exactly-equal tuple.
	OpDelete = wal.OpDelete
)

// Insert builds an insert op.
func Insert(rel string, t value.Tuple) Op { return Op{Kind: OpInsert, Rel: rel, Tuple: t} }

// Delete builds a delete op.
func Delete(rel string, t value.Tuple) Op { return Op{Kind: OpDelete, Rel: rel, Tuple: t} }

// IngestStats counts the write-side activity of a Store.
type IngestStats struct {
	// Batches counts Apply calls that reached validation (including
	// rejected ones).
	Batches int64
	// OpsApplied counts ops committed into an epoch.
	OpsApplied int64
	// OpsRejected counts ops refused for a bound violation or a missing
	// delete target (each aborts its whole batch).
	OpsRejected int64
	// Epochs is the current epoch number (0 = the pristine base).
	Epochs uint64
	// Flattens is always 0.
	//
	// Deprecated: commits no longer fold a chain of epoch diffs; the
	// field stays while readers of IngestStats still name it.
	Flattens int64
	// Compactions counts Compact calls that published a fresh base.
	Compactions int64
	// Extensions counts ExtendAccess calls that published a wider schema.
	Extensions int64
}

// acBinding caches one constraint's positional bindings on its relation,
// its ordinal in the store's schema (the index of its trie and base index
// in a snapshot) and its hash seed (groupSeed).
type acBinding struct {
	ac   schema.AccessConstraint
	key  string
	xPos []int
	yPos []int
	ord  int
	seed uint64
}

func newBinding(rs *schema.Relation, ac schema.AccessConstraint, ord int) (acBinding, error) {
	xPos, err := rs.Positions(ac.X)
	if err != nil {
		return acBinding{}, err
	}
	yPos, err := rs.Positions(ac.Y)
	if err != nil {
		return acBinding{}, err
	}
	return acBinding{ac: ac, key: ac.Key(), xPos: xPos, yPos: yPos, ord: ord, seed: groupSeed(ac.Key())}, nil
}

// acCard is one constraint's incrementally maintained index shape: how
// many X-groups are live, how many distinct (X, Y) entries, and the
// exact current maximum group size. The counters are atomic so readers
// (the engine's plan-drift check runs per prepared-query cache hit)
// never take the writer mutex; the map is writer-owned, mutated only
// under the store mutex.
type acCard struct {
	groups, entries, maxGroup atomic.Int64
	// sizeCount is the multiset of group sizes (size → #groups of that
	// size), which is what keeps maxGroup exact under deletes: when the
	// last group of the maximal size shrinks, the max walks down to the
	// next occupied size.
	sizeCount map[int64]int64
}

func newACCard() *acCard { return &acCard{sizeCount: make(map[int64]int64)} }

// load reads the three counters for a reader.
func (c *acCard) load() stats.ACCard {
	return stats.ACCard{Groups: c.groups.Load(), Entries: c.entries.Load(), MaxGroup: c.maxGroup.Load()}
}

// resize moves one X-group from one entry count to another (0 = the
// group does not exist), maintaining all three counters. A commit calls
// it once per rewritten group with the group's length before and after,
// so the card never needs a per-group count of its own.
func (c *acCard) resize(from, to int64) {
	if from == to {
		return
	}
	c.entries.Add(to - from)
	if from > 0 {
		if c.sizeCount[from]--; c.sizeCount[from] == 0 {
			delete(c.sizeCount, from)
		}
	} else {
		c.groups.Add(1)
	}
	if to > 0 {
		c.sizeCount[to]++
	} else {
		c.groups.Add(-1)
	}
	max := c.maxGroup.Load()
	if to > max {
		c.maxGroup.Store(to)
		return
	}
	if from == max && c.sizeCount[max] == 0 {
		for max > 0 && c.sizeCount[max] == 0 {
			max--
		}
		c.maxGroup.Store(max)
	}
}

// ledgerOf reads one constraint's ledger (see Store.ledger) off the index
// built over tuples, given in live order: the index finds each pair that
// occurs more than once, with its occurrences in that order, probing only
// the tuples that are no witness, and the ledger keys it once. No tuple is
// keyed, and a relation whose pairs all occur once costs nothing. The
// records are the ledger's own: the index keeps no copy.
func ledgerOf(idx *storage.AccessIndex, b acBinding, tuples iter.Seq2[int, value.Tuple]) map[string][]int {
	led := make(map[string][]int)
	for e, ps := range idx.Repeats(tuples) {
		led[pairKey(value.KeyOf(e.Witness(), b.xPos), e.Witness(), b.yPos)] = ps
	}
	return led
}

// entryOf returns the index of the group entry carrying t's Y-value
// under a constraint whose Y sits at yPos, or -1. The access index holds
// one entry per distinct Y of an X-group, so this scan is how the writer
// learns whether a pair is live; it compares t with each witness at the Y
// positions, in place, and allocates nothing.
func entryOf(g []storage.IndexEntry, t value.Tuple, yPos []int) int {
next:
	for i := range g {
		for _, p := range yPos {
			if g[i].Witness()[p] != t[p] {
				continue next
			}
		}
		return i
	}
	return -1
}

// Store is the mutable live layer over one sealed base database. Readers
// pin snapshots (Snapshot) and never block; writers (Apply, Insert,
// Delete) are serialized and publish new epochs atomically. An epoch
// overlays the base with one persistent hash trie per constraint, of
// the groups written since the base; a commit path-copies the trie nodes
// above the groups it rewrote and shares the rest with the epoch before.
type Store struct {
	cat *schema.Catalog

	// acc is the access schema every write is checked against. It is
	// replaced wholesale (never mutated) by ExtendAccess, so concurrent
	// readers — the engine reads it per preparation — always see a
	// consistent schema value.
	acc atomic.Pointer[schema.AccessSchema]

	// cur is the published snapshot; readers load it without locking.
	cur atomic.Pointer[Snapshot]

	// mu serializes writers and guards the writer-owned state below.
	mu sync.Mutex
	// byRel maps a relation to the constraints on it; byKey maps a
	// constraint key to its binding, byOrd an ordinal. byKey is immutable once published:
	// ExtendAccess installs a fresh copy and hands the old one's snapshots
	// keep the map they were born with (Snapshot.binds), so the read path
	// never races schema evolution.
	byRel map[string][]acBinding
	byKey map[string]acBinding
	byOrd []acBinding
	// ledger holds, per constraint key, the one thing the access index
	// cannot say about a live (X, Y) pair: when the pair occurs twice or
	// more, the positions of all its live occurrences, in live order —
	// so the first is the group entry's witness and a delete of the
	// witness can re-point the entry at the next, the choice a
	// from-scratch rebuild (Snapshot.Freeze) would make. A pair with no
	// record occurs once, at the Pos of its group entry, or not at all.
	// Slices are never mutated within their length: a batch appends past
	// it or replaces the slice, so an aborted batch leaves no trace.
	ledger map[string]map[string][]int
	// cards is per constraint key the incrementally maintained index
	// shape (see acCard). The map value is replaced wholesale by
	// ExtendAccess and Compact; counters inside are atomic, so CardStats
	// reads without the writer mutex.
	cards atomic.Pointer[map[string]*acCard]
	// relOrd maps a relation's name to its catalog ordinal, which indexes
	// the per-relation state below, a snapshot's (Snapshot.rels) and the
	// relation's version word. Fixed at construction.
	relOrd map[string]int
	// tupPos maps tuple key → positions of the tuple's occurrences, per
	// relation by ordinal, only for relations no constraint covers
	// (len(byRel[rel]) == 0; nil otherwise): with no index group to find
	// a tuple through, a delete needs a map of its own. ExtendAccess drops
	// a relation's map when it first covers the relation.
	tupPos []map[string][]int
	// baseLen is the immutable base tuple count per relation, by ordinal;
	// added positions start there.
	baseLen []int

	// words are the store's version words (version.go): the epoch of the
	// last commit that rewrote an index group hashing to each of the first
	// groupWords, then one per relation, by ordinal (relWord), for the last
	// commit that flipped the relation between empty and non-empty. The
	// slice is fixed at construction; the words are written under mu and
	// read by anyone.
	words []atomic.Uint64

	// read-side counters (atomic; see Stats). relStats breaks them down
	// per relation (the map is immutable after New).
	lookups  atomic.Int64
	fetched  atomic.Int64
	scanned  atomic.Int64
	relStats map[string]*relCounters
	// ingest counters.
	batches     atomic.Int64
	applied     atomic.Int64
	rejected    atomic.Int64
	compactions atomic.Int64
	extensions  atomic.Int64

	// lastCommit is the wall-clock (UnixNano) of the latest published
	// epoch — construction time until the first commit. It feeds the
	// bcq_epoch_age_seconds gauge: on an idle store the age grows, on an
	// ingesting store it stays near zero.
	lastCommit atomic.Int64
	// applySec, when instrumented (Instrument, before the store is
	// shared), times each Apply batch.
	applySec *obs.Histogram

	// Durability state (nil w = in-memory store; w is the sharded store's
	// log). The segment gauges are atomic for lock-free metric bridges.
	w         *wal.WAL
	dir       string
	segEpoch  atomic.Uint64
	segBytes  atomic.Int64
	segWrites atomic.Int64
}

// New builds a live store over a loaded database. The database's access
// indices for the schema are built if missing (verifying D |= A and
// sealing the base); the writer's bookkeeping is then read off those
// indices, repeated pairs included (see bootstrap), not built beside
// them.
//
// The store is in memory. A durable store is a sharded store's shard
// (NewShard); a durable single store is a sharded store at Shards = 1.
func New(base *storage.Database, acc *schema.AccessSchema, _ Options) (*Store, error) {
	return newStore(base, acc, 0)
}

// newStore is New with the root snapshot's epoch: it builds the in-memory
// store with its root snapshot at baseEpoch (0 for a fresh store, the
// checkpoint epoch when Recover resumes from a segment).
func newStore(base *storage.Database, acc *schema.AccessSchema, baseEpoch uint64) (*Store, error) {
	if base == nil || acc == nil {
		return nil, fmt.Errorf("live: base database and access schema are both required")
	}
	cat := base.Catalog()
	if err := acc.Validate(cat); err != nil {
		return nil, fmt.Errorf("live: access schema does not match catalog: %w", err)
	}
	if err := base.EnsureIndexes(acc); err != nil {
		return nil, fmt.Errorf("live: indexing base database: %w", err)
	}
	st := &Store{
		cat:      cat,
		byRel:    make(map[string][]acBinding),
		byKey:    make(map[string]acBinding),
		relOrd:   make(map[string]int, cat.NumRelations()),
		relStats: make(map[string]*relCounters, cat.NumRelations()),
	}
	st.acc.Store(acc)
	st.newWords()
	for ord, rs := range cat.Relations() {
		st.relOrd[rs.Name()] = ord
		st.relStats[rs.Name()] = &relCounters{}
	}
	for i, ac := range acc.Constraints() {
		rs, _ := cat.Relation(ac.Rel) // acc.Validate checked it exists
		b, err := newBinding(rs, ac, i)
		if err != nil {
			return nil, err
		}
		st.byRel[ac.Rel] = append(st.byRel[ac.Rel], b)
		st.byKey[b.key] = b
		st.byOrd = append(st.byOrd, b)
	}
	st.cur.Store(st.baseSnapshot(base, baseEpoch))
	st.lastCommit.Store(time.Now().UnixNano())
	return st, nil
}

// baseSnapshot (re)builds the writer-side bookkeeping over a sealed base
// (bootstrap) and returns the epoch that reads the base alone: no tries,
// no additions, no tombstones. Called under mu (or before the store is
// shared).
func (st *Store) baseSnapshot(base *storage.Database, epoch uint64) *Snapshot {
	rels, total := st.bootstrap(base)
	idx := make([]*storage.AccessIndex, len(st.byOrd))
	for i, b := range st.byOrd {
		idx[i], _ = base.AccessIndexByKey(b.key)
	}
	return &Snapshot{st: st, base: base, epoch: epoch, rels: rels, numTuples: total,
		binds: st.byKey, acc: st.acc.Load(), idx: idx, roots: make([]*trieNode, len(st.byOrd))}
}

// bootstrap (re)builds the writer-side bookkeeping over a sealed base and
// returns each relation's view of it: its size, nothing added or dead. Cards are read off the base index, one
// step per X-group, and the ledger is read off it too, one probe per
// repeat (ledgerOf): no tuple is keyed. Called under mu (or before the
// store is shared).
func (st *Store) bootstrap(base *storage.Database) (rels []relState, total int64) {
	st.ledger = make(map[string]map[string][]int, len(st.byKey))
	cards := make(map[string]*acCard, len(st.byKey))
	for key, b := range st.byKey {
		idx, _ := base.AccessIndexByKey(key)
		card := newACCard()
		for g := range idx.Groups() {
			card.resize(0, int64(len(g)))
		}
		cards[key] = card
		st.ledger[key] = ledgerOf(idx, b, slices.All(base.MustRelation(b.ac.Rel).Tuples))
	}
	st.cards.Store(&cards)
	n := st.cat.NumRelations()
	st.baseLen = make([]int, n)
	st.tupPos = make([]map[string][]int, n)
	rels = make([]relState, n)
	for ord, rs := range st.cat.Relations() {
		rel := base.MustRelation(rs.Name())
		st.baseLen[ord] = len(rel.Tuples)
		rels[ord].size = int64(len(rel.Tuples))
		total += int64(len(rel.Tuples))
		if len(st.byRel[rs.Name()]) > 0 {
			continue
		}
		pos := make(map[string][]int, len(rel.Tuples))
		for i, t := range rel.Tuples {
			k := t.Key()
			pos[k] = append(pos[k], i)
		}
		st.tupPos[ord] = pos
	}
	return rels, total
}

// Compact collapses the accumulated write history: it freezes the
// current snapshot into a fresh sealed base and publishes it as the next
// epoch, with no tries, no tombstones and rebuilt bookkeeping.
// Snapshot-side state (added tuples, tombstones) otherwise grows
// with total writes, not live size, so a long-lived store under
// insert/delete churn should compact periodically — the live analogue of
// an LSM compaction. Pinned pre-compaction snapshots stay fully valid:
// each snapshot carries the base it overlays. Readers never block;
// writers are paused for the duration (one pass over the live data).
//
// On a shard of a durable store Compact doubles as the checkpoint: the
// frozen base is written as the sealed segment file of the published
// epoch — before anything publishes, so a failed write leaves the store
// unchanged — and the previous segment is retained (two newest kept) so
// a checkpoint that later proves corrupt can fall back one epoch and
// replay forward. The log is the sharded store's, which resets it once
// every shard has checkpointed.
func (st *Store) Compact() (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := st.cur.Load()
	frozen, err := cur.Freeze()
	if err != nil {
		return cur.epoch, err
	}
	if st.w != nil {
		info, err := segment.Write(st.dir, frozen, cur.acc, cur.epoch+1)
		if err != nil {
			return cur.epoch, fmt.Errorf("live: checkpoint: %w", err)
		}
		st.segEpoch.Store(info.Epoch)
		st.segBytes.Store(info.Bytes)
		st.segWrites.Add(1)
	}
	next := st.baseSnapshot(frozen, cur.epoch+1)
	st.compactions.Add(1)
	st.cur.Store(next)
	st.lastCommit.Store(time.Now().UnixNano())
	if st.w != nil {
		segment.Prune(st.dir, 2)
	}
	return next.epoch, nil
}

// pairKey encodes one (X-value, Y-value) combination of a constraint,
// from the X-key the caller already rendered to address the group.
func pairKey(xk string, t value.Tuple, yPos []int) string {
	return xk + "\x00" + value.KeyOf(t, yPos)
}

// Base returns the sealed database the current epoch overlays: the one
// the store was built over until the first Compact, the latest compacted
// one after. The store itself keeps no other handle on a base — an older
// one lives exactly as long as a pinned snapshot (or a caller) still
// reads it.
func (st *Store) Base() *storage.Database { return st.cur.Load().base }

// Catalog returns the catalog the store conforms to.
func (st *Store) Catalog() *schema.Catalog { return st.cat }

// Access returns the access schema every write is checked against — the
// current one, after any ExtendAccess calls.
func (st *Store) Access() *schema.AccessSchema { return st.acc.Load() }

// Snapshot pins the current epoch: an immutable, fully consistent view
// safe for any number of concurrent readers, unaffected by later writes.
func (st *Store) Snapshot() *Snapshot { return st.cur.Load() }

// EpochKey renders the current epoch for display: Snapshot().EpochKey().
func (st *Store) EpochKey() string { return st.Snapshot().EpochKey() }

// NumTuples returns |D| at the current epoch.
func (st *Store) NumTuples() int64 { return st.Snapshot().NumTuples() }

// Epoch returns the current epoch number (0 until the first commit).
// Epochs identify data versions: every committed batch, compaction and
// schema extension publishes a new one, and the version words
// (version.go) hold the epochs of the commits that touched each group.
func (st *Store) Epoch() uint64 { return st.cur.Load().epoch }

// SchemaVersion is the monotone schema change counter: the number of
// ExtendAccess calls that published. The engine tags cached preparation
// errors with it and retries the analysis once it has advanced — and
// only then: a boundedness verdict depends on the query and the access
// schema alone, so data epochs must not invalidate it (a hot rejected
// shape under ingest churn would otherwise re-run the analysis per
// request). publishExtension stores the new schema before advancing the
// counter, so a reader that loads the counter first and the schema
// second can never pair the new version with the old schema.
func (st *Store) SchemaVersion() uint64 { return uint64(st.extensions.Load()) }

// Insert applies a single-op insert batch. See Apply.
func (st *Store) Insert(rel string, t value.Tuple) error {
	_, err := st.Apply([]Op{Insert(rel, t)})
	return err
}

// Delete applies a single-op delete batch. See Apply.
func (st *Store) Delete(rel string, t value.Tuple) error {
	_, err := st.Apply([]Op{Delete(rel, t)})
	return err
}

// relCounters is the per-relation breakdown of the read-side counters.
type relCounters struct {
	lookups atomic.Int64
	fetched atomic.Int64
	scanned atomic.Int64
}

// liveDiscard absorbs counts for unknown relation names (the read paths
// reject those before counting; this keeps the breakdown total-safe).
var liveDiscard relCounters

func (st *Store) relCounters(rel string) *relCounters {
	if c, ok := st.relStats[rel]; ok {
		return c
	}
	return &liveDiscard
}

// Stats returns a snapshot of the read-side access counters, aggregated
// over every snapshot of this store (probes served from the base index
// and from overlays count alike).
func (st *Store) Stats() storage.Stats {
	return storage.Stats{
		IndexLookups:  st.lookups.Load(),
		TuplesFetched: st.fetched.Load(),
		TuplesScanned: st.scanned.Load(),
	}
}

// RelStats returns the per-relation breakdown of the read-side counters
// (same shape as Database.RelStats): which relations absorb the probes.
// Relations with no accesses are included with zero counts.
func (st *Store) RelStats() map[string]storage.Stats {
	out := make(map[string]storage.Stats, len(st.relStats))
	for rel, c := range st.relStats {
		out[rel] = storage.Stats{
			IndexLookups:  c.lookups.Load(),
			TuplesFetched: c.fetched.Load(),
			TuplesScanned: c.scanned.Load(),
		}
	}
	return out
}

// ResetStats zeroes the read-side counters, global and per-relation.
func (st *Store) ResetStats() {
	st.lookups.Store(0)
	st.fetched.Store(0)
	st.scanned.Store(0)
	for _, c := range st.relStats {
		c.lookups.Store(0)
		c.fetched.Store(0)
		c.scanned.Store(0)
	}
}

// CardStats returns the store's current cardinality statistics:
// per-relation live row counts and, per maintained constraint, the
// incrementally tracked index shape (live X-groups, distinct (X, Y)
// entries, exact max group size). The read is lock-free — sizes come
// from the published snapshot, shape counters are atomic — so the
// engine's plan-drift check never contends with writers. The numbers
// match what a from-scratch recount over the live data would produce
// (property-tested against Freeze).
func (st *Store) CardStats() stats.Snapshot {
	out := stats.New()
	snap := st.cur.Load()
	for ord, rs := range st.cat.Relations() {
		out.Rels[rs.Name()] = stats.RelCard{Rows: snap.rels[ord].size}
	}
	for key, card := range *st.cards.Load() {
		out.ACs[key] = card.load()
	}
	return out
}

// ACCard returns one constraint's current card, as CardStats would report
// it, and whether the store maintains that constraint: a map lookup and
// three atomic loads, no snapshot — what the engine's drift check reads
// per constraint of a plan.
func (st *Store) ACCard(key string) (stats.ACCard, bool) {
	card, ok := (*st.cards.Load())[key]
	if !ok {
		return stats.ACCard{}, false
	}
	return card.load(), true
}

// IngestStats returns a snapshot of the write-side counters.
func (st *Store) IngestStats() IngestStats {
	return IngestStats{
		Batches:     st.batches.Load(),
		OpsApplied:  st.applied.Load(),
		OpsRejected: st.rejected.Load(),
		Epochs:      st.Epoch(),
		Compactions: st.compactions.Load(),
		Extensions:  st.extensions.Load(),
	}
}

// Apply validates and commits one batch of writes, returning the epoch
// the batch published (or the current epoch when nothing changed). The
// batch is checked op by op against the access schema over the state the
// previous ops of the same batch produced. The first bound violation or
// missing delete target aborts the whole batch — no state changes, and
// the error identifies the op (errors.Is ErrBound / ErrNoSuchTuple). So
// does a structural error (unknown relation, arity mismatch), which is a
// caller bug, not a data property.
//
// A committed batch is atomic: readers either see the whole batch (by
// pinning a snapshot at or after the returned epoch) or none of it.
//
// Apply is Stage, then Commit. A shard of a durable sharded store
// refuses it (see NewShard): its sharded store logs each batch before
// it publishes.
func (st *Store) Apply(ops []Op) (uint64, error) {
	if st.w != nil {
		return st.Epoch(), errSharedLog
	}
	sb, err := st.Stage(ops)
	if err != nil {
		return st.Epoch(), err
	}
	return sb.Commit(), nil
}

// errSharedLog refuses a write that would publish on a shard of a durable
// sharded store without its store logging it.
var errSharedLog = errors.New("live: this store is a shard of a durable sharded store; write through the sharded store")

// Staged is a batch Stage validated and has not yet published: its
// effects are computed against the epoch it was staged at, and its store's
// writer lock is held until Commit or Abort.
type Staged struct {
	txn
	start time.Time
}

// Stage validates a batch as Apply does and returns it staged: every
// effect is computed and nothing is published. The store's writer lock
// is held from Stage until the batch's Commit or Abort, so no other
// write comes between; the caller must call exactly one of them, and
// soon. A batch Apply would reject returns the error and holds nothing.
//
// Stage, Commit is the store's one commit path: Apply runs it in memory,
// and a sharded store runs it on every shard a batch touches, with one
// append to its log for all of them between the two, so a batch publishes
// on every shard or on none.
func (st *Store) Stage(ops []Op) (*Staged, error) {
	st.mu.Lock()
	st.batches.Add(1)
	sb := &Staged{txn: newTxn(st, st.cur.Load(), ops)}
	if st.applySec != nil {
		sb.start = time.Now()
	}
	for _, op := range ops {
		var err error
		switch op.Kind {
		case OpInsert:
			err = sb.insert(op)
		case OpDelete:
			err = sb.delete(op)
		default:
			err = fmt.Errorf("live: unknown op kind %d", op.Kind)
		}
		if err == nil {
			continue
		}
		if errors.Is(err, ErrBound) || errors.Is(err, ErrNoSuchTuple) {
			st.rejected.Add(1)
		}
		sb.done()
		return nil, err
	}
	return sb, nil
}

// Ops returns the ops of the batch, in batch order: every one takes effect
// when it commits, and they are what a write-ahead log records.
func (sb *Staged) Ops() []Op { return sb.ops }

// Epoch returns the epoch Commit publishes: the next one, or the current
// one when the batch is empty.
func (sb *Staged) Epoch() uint64 {
	if len(sb.ops) > 0 {
		return sb.snap.epoch + 1
	}
	return sb.snap.epoch
}

// Commit publishes the staged batch as the next epoch, releases the
// writer lock and returns the epoch published (see Epoch).
func (sb *Staged) Commit() uint64 {
	epoch := sb.st.commit(&sb.txn)
	sb.done()
	return epoch
}

// Abort drops the staged batch and releases the writer lock: the store is
// as if the batch had never been staged.
func (sb *Staged) Abort() { sb.done() }

// done times the batch, when the store is instrumented, and releases the
// writer lock.
func (sb *Staged) done() {
	if sb.st.applySec != nil {
		sb.st.applySec.Observe(time.Since(sb.start).Seconds())
	}
	sb.st.mu.Unlock()
}
