// Package shard scales the live store out horizontally: a Store
// partitions one database into P shards, each a live.Store with its own
// sealed base, incremental index maintenance and epoch snapshots, and
// serves bounded evaluation over all of them through a scatter-gather
// view that is byte-identical to a single-store run.
//
// # Shard-key derivation
//
// Access constraints hand the partitioner a free shard key: every index
// probe of a bounded plan carries a concrete X-binding, so partitioning a
// relation by (a subset of) X routes each probe to exactly one shard. The
// key chosen for a relation is the X-set of an anchor constraint — one
// whose X is contained in the X of every other constraint on that
// relation. That containment is what makes scatter-gather exact:
//
//   - every group of every constraint lives wholly on one shard (tuples
//     agreeing on a superset of the key agree on the key), so no probe
//     ever merges or deduplicates entries across shards;
//   - per-shard admission checking is globally exact — a shard sees every
//     live tuple of any group it checks, so the shard-local bound check
//     equals the single-store one and D |= A holds globally;
//   - witness selection inside a shard equals what a single store holding
//     the same tuples in the same order would pick, so D_Q accounting is
//     preserved (positions are shard-local; the executor tracks
//     (relation, shard, position), a bijective renaming of the
//     single-store position space).
//
// Every relation follows that one rule; only the key differs. Relations
// whose constraints force an empty or non-existent anchor — a
// bounded-domain constraint ∅ → (Y, N), whose single group spans the
// whole relation, or several constraints with incomparable X-sets (a wide
// fact table with independent lookup keys) — take the empty key, so the
// whole relation hashes to one shard: correctness first, scale-out where
// the schema licenses it. Relations with no constraints take all their
// attributes as the key: no probe ever reads them through an index, and
// equal tuples still meet on one shard. Routing depends only on a tuple's
// content, so an insert and a later delete of the same tuple always
// reach the same shard.
//
// # Writes and the epoch vector
//
// Apply splits a batch by owning shard and stages the sub-batches
// shard-parallel: admission checking and copy-on-write group maintenance
// run under each shard's writer lock (live.Store.Stage). Only when every
// sub-batch has staged does anything publish, so a batch commits on every
// shard it touches or on none: a Strict batch with one failing sub-batch
// commits nothing. A durable store logs the staged batch as one record of
// its one write-ahead log — every sub-batch with its shard and that
// shard's next epoch — and fsyncs it once before any shard publishes.
// Shards in one process on one disk are one failure domain, so recovery
// holds a logged batch whole or not at all.
//
// # Reads and the published cut
//
// No read waits for a write. The store publishes one cut at a time — a
// View: every shard's snapshot, the probe routes, the schema version and
// an epoch token — through one atomic pointer, and View is one load of
// it. Each writer (Apply, ExtendAccess, a checkpoint) publishes the next
// cut after its last shard commit, and so after the log's fsync that
// covers it. One mutex orders the writers from staging through the log
// append and the commits to the publication, so log order is commit
// order and every cut is consistent: each committed batch is in it
// wholly or not at all. Apply returns once its cut is published, so
// every later View holds the batch.
package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/stats"
	"bcq/internal/storage"
	"bcq/internal/value"
	"bcq/internal/wal"
)

// Options tunes a sharded store.
type Options struct {
	// Shards is the partition count P (≥ 1). Open accepts 0 to mean
	// "whatever the directory's manifest says".
	Shards int
	// Mode is the per-shard live stores' violation policy (default
	// live.Strict).
	Mode live.Mode
	// Dir, when non-empty, makes the store durable: one write-ahead log
	// at the root (wal.log) records every batch and extension of every
	// shard, each shard keeps its checkpoint segments in its own
	// subdirectory (shard-000, shard-001, …), and a manifest at the root
	// records the shard count and the placement of every relation. New
	// requires the directory to hold no prior sharded store; use Open to
	// recover one. Empty Dir keeps the store fully in-memory.
	Dir string
}

// placement is one relation's distribution rule: its tuples hash on the
// shard-key attributes. An empty key sends the whole relation to one
// shard.
type placement struct {
	key    []string // the shard-key attributes, sorted
	tuples locator  // finds the key in the relation's tuples
}

// locator finds a relation's shard key inside one tuple layout — a
// relation tuple, or a constraint's X-binding — and hashes it to the
// owning shard. Tuples in New, write ops in Apply and probes in
// View.Partition are all routed by owner.
type locator struct {
	rel   string
	width int   // the layout's length
	pos   []int // where the sorted key's attributes sit in the layout
	// home is the shard every tuple hashes to when the key is empty
	// (hashKey(rel, nil) % P, precomputed), and -1 otherwise.
	home int
	p    uint64
}

func newLocator(rel string, width int, pos []int, p int) locator {
	l := locator{rel: rel, width: width, pos: pos, home: -1, p: uint64(p)}
	if len(pos) == 0 {
		l.home = int(hashKey(rel, nil) % l.p)
	}
	return l
}

// owner returns the shard owning t, or false when t does not have the
// layout's length.
func (l *locator) owner(t value.Tuple) (int, bool) {
	if len(t) != l.width {
		return 0, false
	}
	if l.home >= 0 {
		return l.home, true
	}
	var kb [value.KeyBufSize]byte
	return int(hashKey(l.rel, value.AppendKeyOf(kb[:0], t, l.pos)) % l.p), true
}

// Store is a sharded live store: P partitions, each a live.Store over its
// own sealed base, presenting one logical database. Reads go through View
// (the published cut, implementing exec.Store and exec.PartitionedStore);
// writes go through Apply/Insert/Delete, staged shard-parallel and
// committed on every shard or none.
type Store struct {
	cat  *schema.Catalog
	mode live.Mode
	p    int      // partition count, fixed before the shards exist
	dir  string   // durable root directory ("" for in-memory stores)
	w    *wal.WAL // the store's one log (nil for in-memory stores)

	shards []*live.Store
	place  map[string]*placement

	// cut is the published View. Writers replace it under viewMu, after
	// their last shard commit; readers load it and never lock.
	cut atomic.Pointer[View]

	// viewMu orders the writers: Apply holds it from staging to the
	// publication of its cut, so the log's records follow commit order;
	// ExtendAccess and Compact hold it throughout, so no batch commits
	// between a shard's checkpoint and the log's reset.
	viewMu sync.Mutex
}

// New partitions a loaded database into opts.Shards shards. The base
// database is only read (tuple by tuple, in load order) and is not
// retained: each shard gets its own fresh base, indexed and
// sealed by its live store (which re-verifies D |= A shard by shard — a
// partition of a satisfying database satisfies the schema, so this cannot
// fail on correctly loaded data).
func New(base *storage.Database, acc *schema.AccessSchema, opts Options) (*Store, error) {
	if base == nil || acc == nil {
		return nil, fmt.Errorf("shard: base database and access schema are both required")
	}
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: shard count %d < 1", opts.Shards)
	}
	cat := base.Catalog()
	if err := acc.Validate(cat); err != nil {
		return nil, fmt.Errorf("shard: access schema does not match catalog: %w", err)
	}
	st := &Store{
		cat:   cat,
		mode:  opts.Mode,
		p:     opts.Shards,
		place: make(map[string]*placement, cat.NumRelations()),
	}
	P := opts.Shards
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := refuseSingleLiveStore(opts.Dir); err != nil {
			return nil, err
		}
		for _, name := range []string{manifestFileName, walFileName} {
			if _, err := os.Stat(filepath.Join(opts.Dir, name)); err == nil {
				return nil, fmt.Errorf("shard: %s already holds a sharded store; recover it with Open", opts.Dir)
			}
		}
	}

	// Derive placements and probe routes.
	for _, rs := range cat.Relations() {
		pl, err := derivePlacement(rs, acc.ForRelation(rs.Name()), P)
		if err != nil {
			return nil, err
		}
		st.place[rs.Name()] = pl
	}
	routes := make(map[string]*locator, acc.Size())
	for _, ac := range acc.Constraints() {
		rt, err := st.buildRoute(ac)
		if err != nil {
			return nil, err
		}
		routes[ac.Key()] = rt
	}

	// Distribute the base tuples in load order: within a shard, relative
	// order is preserved, which keeps per-shard witness selection
	// identical to a single store restricted to that shard's tuples.
	dbs := make([]*storage.Database, P)
	for s := range dbs {
		dbs[s] = storage.NewDatabase(cat)
	}
	for _, rs := range cat.Relations() {
		rel := rs.Name()
		pl := st.place[rel]
		for _, t := range base.MustRelation(rel).Tuples {
			s, ok := pl.tuples.owner(t)
			if !ok {
				return nil, fmt.Errorf("shard: relation %s tuple %s does not have arity %d", rel, t, rs.Arity())
			}
			if err := dbs[s].Insert(rel, t); err != nil {
				return nil, err
			}
		}
	}
	if opts.Dir != "" {
		var err error
		if st.w, _, err = wal.Open(filepath.Join(opts.Dir, walFileName)); err != nil {
			return nil, err
		}
	}
	st.shards = make([]*live.Store, P)
	for s := range dbs {
		var ls *live.Store
		var err error
		if opts.Dir != "" {
			ls, err = live.NewShard(dbs[s], acc, opts.Mode, filepath.Join(opts.Dir, shardDirName(s)), st.w)
		} else {
			ls, err = live.New(dbs[s], acc, live.Options{Mode: opts.Mode})
		}
		if err != nil {
			st.closeLog()
			return nil, fmt.Errorf("shard: building shard %d: %w", s, err)
		}
		st.shards[s] = ls
	}
	// The manifest is written LAST: its presence certifies that every
	// shard directory below it was fully initialized, so Open can treat a
	// manifest-less directory holding shard state as a creation crash.
	if opts.Dir != "" {
		if err := writeManifest(opts.Dir, st.manifest()); err != nil {
			st.closeLog()
			return nil, fmt.Errorf("shard: writing manifest: %w", err)
		}
		st.dir = opts.Dir
	}
	st.publish(routes)
	return st, nil
}

// buildRoute locates a relation's shard key in a constraint's X-bindings.
// It refuses a constraint whose X lacks the key, since its groups could
// span shards — except at P = 1, where every probe routes to the one
// shard and no group can split.
func (st *Store) buildRoute(ac schema.AccessConstraint) (*locator, error) {
	pl, ok := st.place[ac.Rel]
	if !ok {
		return nil, fmt.Errorf("shard: unknown relation %s", ac.Rel)
	}
	if st.p == 1 {
		l := newLocator(ac.Rel, len(ac.X), nil, 1)
		return &l, nil
	}
	pos, err := positionsIn(pl.key, ac.X)
	if err != nil {
		return nil, fmt.Errorf("shard: constraint %s does not contain relation %s's shard key (%s): %w; rebuild the store with the wider schema",
			ac, ac.Rel, strings.Join(pl.key, ", "), err)
	}
	l := newLocator(ac.Rel, len(ac.X), pos, st.p)
	return &l, nil
}

// derivePlacement picks a relation's shard key: the X-set of an anchor
// constraint (one whose X every other constraint's X contains), the empty
// key when no anchor exists, and all the attributes when the relation has
// no constraints. An anchor with empty X (a bounded-domain constraint
// ∅ → (Y, N)) gives the empty key too: all its probes hash the same key
// anyway.
func derivePlacement(rs *schema.Relation, acs []schema.AccessConstraint, P int) (*placement, error) {
	if len(acs) == 0 {
		return newPlacement(rs, rs.Attrs(), P)
	}
	for _, c := range acs {
		ok := true
		for _, o := range acs {
			if !subsetSorted(c.X, o.X) {
				ok = false
				break
			}
		}
		if ok {
			return newPlacement(rs, c.X, P)
		}
	}
	return newPlacement(rs, nil, P)
}

// newPlacement places a relation by the given shard-key attributes.
func newPlacement(rs *schema.Relation, key []string, P int) (*placement, error) {
	key = append([]string(nil), key...)
	sort.Strings(key)
	pos, err := rs.Positions(key)
	if err != nil {
		return nil, fmt.Errorf("shard: relation %s shard key: %w", rs.Name(), err)
	}
	return &placement{key: key, tuples: newLocator(rs.Name(), rs.Arity(), pos, P)}, nil
}

// positionsIn returns the positions of the (sorted) needles within the
// (sorted) haystack.
func positionsIn(needles, haystack []string) ([]int, error) {
	out := make([]int, len(needles))
	for i, n := range needles {
		j := sort.SearchStrings(haystack, n)
		if j >= len(haystack) || haystack[j] != n {
			return nil, fmt.Errorf("shard key attribute %s not in X list %v", n, haystack)
		}
		out[i] = j
	}
	return out, nil
}

// subsetSorted reports whether every element of a (sorted) is in b
// (sorted).
func subsetSorted(a, b []string) bool {
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i >= len(b) || b[i] != x {
			return false
		}
	}
	return true
}

// hashKey is the stable shard hash: FNV-1a over the relation name and the
// encoded key, so placement is deterministic across runs and the relation
// prefix decorrelates different relations' hot keys.
//
// The loop is hash/fnv's New64a over rel, a zero byte and key, written out
// so that routing a probe allocates nothing (TestHashKeyIsFNV1a pins the
// equality: durable stores were placed by it).
func hashKey(rel string, key []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(rel); i++ {
		h = (h ^ uint64(rel[i])) * prime64
	}
	h *= prime64 // the separator: h ^ 0 is h
	for _, c := range key {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// NumShards returns the partition count P.
func (st *Store) NumShards() int { return st.p }

// Catalog returns the catalog the store conforms to.
func (st *Store) Catalog() *schema.Catalog { return st.cat }

// Access returns the access schema of the published cut, after the
// ExtendAccess calls it holds. It reads the cut and not a shard, so the
// engine never plans against a constraint that a shard has committed but
// no cut routes yet; the cut a request then pins is this one or a later
// one, which routes it.
func (st *Store) Access() *schema.AccessSchema { return st.View().Access() }

// Base returns the store's current data as one sealed database: the
// current view, frozen (View.Freeze). It costs O(|D|) and is never
// consulted for serving; it exists for callers that want the data itself
// (baseline comparisons, duplicate streams). A store recovered by Open
// answers it like a store built by New.
func (st *Store) Base() (*storage.Database, error) { return st.View().Freeze() }

// Mode returns the shards' violation policy.
func (st *Store) Mode() live.Mode { return st.mode }

// Shard returns one partition's live store (read-mostly introspection;
// writing to it directly bypasses routing and will corrupt placement,
// and a durable store's shards refuse it).
func (st *Store) Shard(i int) *live.Store { return st.shards[i] }

// WAL returns the store's one write-ahead log (nil for in-memory stores):
// metric bridges read its counters and crash tests arm its fail points.
// Every shard's live.Store.WAL returns it too.
func (st *Store) WAL() *wal.WAL { return st.w }

// PlacementOf describes a relation's distribution rule, for diagnostics:
// "partitioned by (a, b)", or "pinned to shard 3" for the empty key.
func (st *Store) PlacementOf(rel string) (string, error) {
	pl, ok := st.place[rel]
	if !ok {
		return "", fmt.Errorf("shard: unknown relation %s", rel)
	}
	if len(pl.key) == 0 {
		return fmt.Sprintf("pinned to shard %d", pl.tuples.home), nil
	}
	return fmt.Sprintf("partitioned by (%s)", strings.Join(pl.key, ", ")), nil
}

// Apply validates and commits one batch of writes. Each op goes to the
// shard its tuple hashes to, and the per-shard sub-batches are staged in
// parallel (live.Store.Stage), each with the violation semantics of
// live.Store.Apply: Strict, an op's first violation fails its sub-batch;
// Permissive, violators are quarantined on their shard. The batch is
// atomic across shards: when any sub-batch fails, none commits. A
// durable store then appends the staged batch to its log as one record
// and fsyncs it, and only then does every shard publish. An unknown
// relation or a tuple of the wrong arity fails the batch before anything
// is staged; otherwise the first sub-batch error (in shard order) is
// returned. Apply returns after it has published the cut that holds the
// batch.
func (st *Store) Apply(ops []live.Op) error {
	st.viewMu.Lock()
	defer st.viewMu.Unlock()

	buckets := make([][]live.Op, len(st.shards))
	for _, op := range ops {
		pl, ok := st.place[op.Rel]
		if !ok {
			return fmt.Errorf("shard: unknown relation %s", op.Rel)
		}
		s, ok := pl.tuples.owner(op.Tuple)
		if !ok {
			return fmt.Errorf("shard: relation %s expects arity %d, got %d", op.Rel, pl.tuples.width, len(op.Tuple))
		}
		buckets[s] = append(buckets[s], op)
	}
	var active []int
	for s, sub := range buckets {
		if len(sub) > 0 {
			active = append(active, s)
		}
	}

	// Stage: the last active bucket runs on the calling goroutine, so a
	// single-shard batch pays no handoff at all.
	staged := make([]*live.Staged, len(st.shards))
	errs := make([]error, len(st.shards))
	var wg sync.WaitGroup
	for k, s := range active {
		if k == len(active)-1 {
			staged[s], errs[s] = st.shards[s].Stage(buckets[s])
			break
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			staged[s], errs[s] = st.shards[s].Stage(buckets[s])
		}(s)
	}
	wg.Wait()
	abort := func() {
		for _, sb := range staged {
			if sb != nil {
				sb.Abort()
			}
		}
	}
	for _, s := range active {
		if errs[s] != nil {
			abort()
			return errs[s]
		}
	}
	if st.w != nil {
		subs := make([]wal.Sub, 0, len(active))
		for _, s := range active {
			if ops := staged[s].Ops(); len(ops) > 0 {
				subs = append(subs, wal.Sub{Shard: s, Epoch: staged[s].Epoch(), Ops: ops})
			}
		}
		if len(subs) > 0 {
			if err := st.w.Append(wal.Record{Kind: wal.RecShardBatch, Subs: subs}); err != nil {
				abort()
				return fmt.Errorf("shard: wal append: %w", err)
			}
		}
	}
	for _, s := range active {
		staged[s].Commit()
	}
	st.publish(st.View().routes)
	return nil
}

// Insert applies a single-op insert batch. See Apply.
func (st *Store) Insert(rel string, t value.Tuple) error {
	return st.Apply([]live.Op{live.Insert(rel, t)})
}

// Delete applies a single-op delete batch. See Apply.
func (st *Store) Delete(rel string, t value.Tuple) error {
	return st.Apply([]live.Op{live.Delete(rel, t)})
}

// Compact collapses each shard's write history into a fresh frozen base
// (live.Store.Compact), shard-parallel, and publishes the cut over the
// new bases. Pinned views stay valid. On a durable store it is the
// checkpoint: every shard writes its segment, and then the store's log is
// reset. Writers are excluded throughout, so no batch commits between a
// shard's checkpoint and the reset; readers are not.
func (st *Store) Compact() error {
	st.viewMu.Lock()
	defer st.viewMu.Unlock()
	err := st.checkpoint()
	st.publish(st.View().routes)
	return err
}

// checkpoint compacts every shard, shard-parallel, and then resets the
// log. A shard that fails leaves the log as it is: the shards that did
// checkpoint skip its records at replay by epoch. Called under viewMu;
// the caller publishes the next cut.
func (st *Store) checkpoint() error {
	errs := make([]error, len(st.shards))
	var wg sync.WaitGroup
	for s := range st.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			_, errs[s] = st.shards[s].Compact()
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if st.w != nil {
		if err := st.w.Reset(); err != nil {
			return fmt.Errorf("shard: truncating wal after checkpoint: %w", err)
		}
	}
	return nil
}

// SchemaVersion is the monotone schema change counter of the published
// cut: the sum of the shards' extension counts when it was published.
// The engine reads it before Access; both read the cut, and a later cut
// holds every constraint of an earlier one, so the version read first
// is never newer than the schema read second. Data epochs deliberately
// do not advance it: a boundedness verdict depends only on the query and
// the schema, so ingest churn must not defeat the engine's error cache.
func (st *Store) SchemaVersion() uint64 { return st.View().version }

// ExtendAccess widens the access schema with one more constraint
// X → (Y, N) at runtime, shard-consistently: writers are excluded for
// the duration, every shard's live data is validated against the new
// bound first, and only then does each shard commit the extension — so a
// failure (a *storage.ViolationError from the offending shard) leaves the
// whole store unchanged. A durable store logs the extension as one
// record, naming every shard's next epoch, before any shard commits it.
// The cut published last holds the new schema and its route together.
//
// The new constraint must not break the placement invariant that makes
// scatter-gather exact: its X must contain the relation's shard key
// (every group then still lives whole on one shard). The empty key of a
// pinned relation is contained in any X; the all-attributes key of a
// relation created without constraints is contained only in an X of
// every attribute, so widening such a relation otherwise means
// rebuilding the store with the wider schema. A one-shard store has no
// groups to split and takes any constraint. Extending with a constraint
// already in the schema is a no-op.
func (st *Store) ExtendAccess(ac schema.AccessConstraint) error {
	st.viewMu.Lock()
	defer st.viewMu.Unlock()

	if err := ac.Validate(st.cat); err != nil {
		return fmt.Errorf("shard: extending access schema: %w", err)
	}
	routes := st.View().routes
	if _, ok := routes[ac.Key()]; ok {
		return nil
	}
	rt, err := st.buildRoute(ac)
	if err != nil {
		return err
	}

	// Two-phase: stage (validate) every shard before committing any.
	// Writers are excluded (viewMu held), so the staged verdicts stay
	// valid and each shard's live-data scan is paid once.
	staged := make([]*live.StagedExtension, len(st.shards))
	for s, ls := range st.shards {
		se, err := ls.StageExtension(ac)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		staged[s] = se
	}
	if st.w != nil {
		rec := wal.Record{Kind: wal.RecShardExtension, Rel: ac.Rel, X: ac.X, Y: ac.Y, N: ac.N}
		for s, se := range staged {
			if se != nil {
				rec.Subs = append(rec.Subs, wal.Sub{Shard: s, Epoch: se.Epoch()})
			}
		}
		if len(rec.Subs) > 0 {
			if err := st.w.Append(rec); err != nil {
				return fmt.Errorf("shard: wal append (extension): %w", err)
			}
		}
	}
	for s, se := range staged {
		if se == nil {
			continue // this shard already maintained the constraint
		}
		if err := se.Commit(); err != nil {
			return fmt.Errorf("shard %d: %w (extension committed on earlier shards — store inconsistent, rebuild it)", s, err)
		}
	}

	next := make(map[string]*locator, len(routes)+1)
	for k, r := range routes {
		next[k] = r
	}
	next[ac.Key()] = rt
	st.publish(next)
	return nil
}

// NumTuples returns |D| at the published cut: live tuples across all
// shards and relations.
func (st *Store) NumTuples() int64 { return st.View().NumTuples() }

// Stats aggregates the read-side access counters across shards.
func (st *Store) Stats() storage.Stats {
	var out storage.Stats
	for _, ls := range st.shards {
		s := ls.Stats()
		out.IndexLookups += s.IndexLookups
		out.TuplesFetched += s.TuplesFetched
		out.TuplesScanned += s.TuplesScanned
	}
	return out
}

// ShardStats returns each shard's read-side counters — with
// View.ShardSizes, the observability surface for probe and data balance.
func (st *Store) ShardStats() []storage.Stats {
	out := make([]storage.Stats, len(st.shards))
	for s, ls := range st.shards {
		out[s] = ls.Stats()
	}
	return out
}

// RelStats aggregates the per-relation access breakdown across shards.
func (st *Store) RelStats() map[string]storage.Stats {
	out := make(map[string]storage.Stats, st.cat.NumRelations())
	for _, ls := range st.shards {
		for rel, s := range ls.RelStats() {
			agg := out[rel]
			agg.IndexLookups += s.IndexLookups
			agg.TuplesFetched += s.TuplesFetched
			agg.TuplesScanned += s.TuplesScanned
			out[rel] = agg
		}
	}
	return out
}

// CardStats merges the shards' cardinality statistics into one logical
// snapshot: rows, groups and entries sum — exact, because shards hold
// disjoint tuples and the placement invariant keeps every index group
// whole on one shard, so no group is double-counted — and the max group
// size is the max across shards. Lock-free, like the per-shard reads.
func (st *Store) CardStats() stats.Snapshot {
	out := stats.New()
	for _, ls := range st.shards {
		out = out.Merge(ls.CardStats())
	}
	return out
}

// ACCard is one constraint's entry of CardStats, merged the same way
// from the shards' atomic counters, without building a snapshot: the
// engine's drift check reads it per constraint of a plan.
func (st *Store) ACCard(key string) (stats.ACCard, bool) {
	var out stats.ACCard
	found := false
	for _, ls := range st.shards {
		c, ok := ls.ACCard(key)
		if !ok {
			continue
		}
		found = true
		out.Groups += c.Groups
		out.Entries += c.Entries
		out.MaxGroup = max(out.MaxGroup, c.MaxGroup)
	}
	return out, found
}

// ResetStats zeroes every shard's read-side counters.
func (st *Store) ResetStats() {
	for _, ls := range st.shards {
		ls.ResetStats()
	}
}

// IngestStats aggregates the write-side counters across shards. Epochs is
// the sum of the shards' epoch numbers (total commits), since there is no
// single logical epoch; use View().Epochs() for the vector.
func (st *Store) IngestStats() live.IngestStats {
	var out live.IngestStats
	for _, ls := range st.shards {
		ig := ls.IngestStats()
		out.Batches += ig.Batches
		out.OpsApplied += ig.OpsApplied
		out.OpsRejected += ig.OpsRejected
		out.OpsQuarantined += ig.OpsQuarantined
		out.Epochs += ig.Epochs
		out.Compactions += ig.Compactions
		out.Extensions += ig.Extensions
	}
	return out
}

// Quarantine concatenates the shards' quarantine lists (shard order, then
// arrival order within a shard).
func (st *Store) Quarantine() []live.Quarantined {
	var out []live.Quarantined
	for _, ls := range st.shards {
		out = append(out, ls.Quarantine()...)
	}
	return out
}

// View returns the published cut: one atomic load, no lock and no
// allocation, so it never waits for a writer, an fsync or a checkpoint.
// The cut holds every batch whose Apply has returned, each wholly, and
// no batch in part. The returned view is immutable, safe for any number
// of concurrent readers, and implements exec.Store and
// exec.PartitionedStore.
func (st *Store) View() *View { return st.cut.Load() }

// publish installs the next cut: every shard's current snapshot, with the
// given probe routes. Called under viewMu after a writer's last shard
// commit, or before the store is shared.
func (st *Store) publish(routes map[string]*locator) {
	v := &View{st: st, snaps: make([]*live.Snapshot, len(st.shards)), routes: routes}
	for s, ls := range st.shards {
		v.snaps[s] = ls.Snapshot()
		v.epoch += v.snaps[s].Epoch()
		v.version += ls.SchemaVersion()
	}
	st.cut.Store(v)
}
