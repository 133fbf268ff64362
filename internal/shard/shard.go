// Package shard scales the live store out horizontally: a Store
// partitions one database into P shards, each a live.Store with its own
// sealed base, incremental index maintenance and snapshot chain, and
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
// Relations whose constraints force an empty or non-existent anchor — a
// bounded-domain constraint ∅ → (Y, N), whose single group spans the
// whole relation, or several constraints with incomparable X-sets (a wide
// fact table with independent lookup keys) — are pinned whole to one
// shard: correctness first, scale-out where the schema licenses it.
// Relations with no constraints are round-robined across shards for write
// bandwidth; they are never probed through an index, and non-emptiness
// checks fan out.
//
// # Writes and the epoch vector
//
// Apply splits a batch by owning shard and commits the sub-batches
// shard-parallel: admission checking, copy-on-write group maintenance and
// snapshot publication all run under per-shard writer locks, so ingest
// throughput scales with P. A sub-batch is atomic on its shard; the
// cross-shard batch is not (there is no distributed transaction — shards
// hold disjoint data, so the only cross-shard anomaly is a torn batch, not
// a torn tuple).
//
// View pins one epoch vector atomically: it briefly excludes writers (a
// single RWMutex writers share in read mode) and loads every shard's
// current snapshot, so the vector is a consistent cut — every committed
// batch is either entirely visible or entirely invisible in the view.
package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/stats"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// Options tunes a sharded store.
type Options struct {
	// Shards is the partition count P (≥ 1). Open accepts 0 to mean
	// "whatever the directory's manifest says".
	Shards int
	// Mode is the per-shard live stores' violation policy (default
	// live.Strict).
	Mode live.Mode
	// Dir, when non-empty, makes the store durable: each shard keeps a
	// write-ahead log and checkpoint segments in its own subdirectory
	// (shard-000, shard-001, …) and a manifest at the root records the
	// shard count and the placement of every relation. New requires the
	// directory to hold no prior sharded store; use Open to recover one.
	// Empty Dir keeps the store fully in-memory.
	Dir string
}

// placementKind says how a relation's tuples are distributed.
type placementKind uint8

const (
	// partitioned hashes the shard-key attributes of each tuple.
	partitioned placementKind = iota
	// pinned keeps the whole relation on one shard.
	pinned
	// roundRobin spreads constraint-less relations for write bandwidth.
	roundRobin
)

// placement is one relation's distribution rule.
type placement struct {
	kind placementKind
	// key/keyPos: the shard-key attributes (sorted) and their positions
	// in the relation schema (partitioned only).
	key    []string
	keyPos []int
	// home is the owning shard (pinned only).
	home int
}

// route precomputes how a constraint's probes find their shard.
type route struct {
	rel string
	// pinnedTo is ≥ 0 when every probe goes to one shard.
	pinnedTo int
	// keyInX are the positions of the relation's shard-key attributes
	// within the constraint's sorted X list (partitioned relations only).
	keyInX []int
}

// Store is a sharded live store: P partitions, each a live.Store over its
// own sealed base, presenting one logical database. Reads go through View
// (an atomically pinned epoch vector implementing exec.Store and
// exec.PartitionedStore); writes go through Apply/Insert/Delete and are
// committed shard-parallel.
type Store struct {
	cat  *schema.Catalog
	mode live.Mode
	p    int    // partition count, fixed before the shards exist
	dir  string // durable root directory ("" for in-memory stores)

	shards []*live.Store
	place  map[string]*placement
	// routes is keyed by AccessConstraint.Key(). The map is immutable
	// once published: ExtendAccess installs a fresh copy under viewMu,
	// and each View captures the map current at pin time, so probe
	// routing never races schema evolution.
	routes map[string]*route

	// viewMu: writers hold it in read mode for the duration of a commit
	// (so writes to different shards proceed in parallel); View holds it
	// in write mode for the instants it pins the epoch vector, making the
	// vector a consistent cut. ExtendAccess holds it in write mode for
	// the whole extension, excluding writers and pins.
	viewMu sync.RWMutex

	// rrMu guards the round-robin insert cursor of constraint-less
	// relations. Deletes of such relations are routed by probing the
	// shards' live occurrence counts instead of mirrored bookkeeping
	// (see routeOp), so the cursor is the only shared state.
	rrMu   sync.Mutex
	rrNext map[string]int
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
		cat:    cat,
		mode:   opts.Mode,
		p:      opts.Shards,
		place:  make(map[string]*placement, cat.NumRelations()),
		routes: make(map[string]*route, acc.Size()),
		rrNext: make(map[string]int),
	}
	P := opts.Shards
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		if _, err := os.Stat(filepath.Join(opts.Dir, manifestFileName)); err == nil {
			return nil, fmt.Errorf("shard: %s already holds a sharded store; recover it with Open", opts.Dir)
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
	for _, ac := range acc.Constraints() {
		rt, err := st.buildRoute(ac)
		if err != nil {
			return nil, err
		}
		st.routes[ac.Key()] = rt
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
			s := st.routeTuple(pl, rel, t)
			if err := dbs[s].Insert(rel, t); err != nil {
				return nil, err
			}
		}
	}
	st.shards = make([]*live.Store, P)
	for s := range dbs {
		lopts := live.Options{Mode: opts.Mode}
		if opts.Dir != "" {
			lopts.Dir = filepath.Join(opts.Dir, shardDirName(s))
		}
		ls, err := live.New(dbs[s], acc, lopts)
		if err != nil {
			closeAll(st.shards[:s])
			return nil, fmt.Errorf("shard: building shard %d: %w", s, err)
		}
		st.shards[s] = ls
	}
	// The manifest is written LAST: its presence certifies that every
	// shard directory below it was fully initialized, so Open can treat a
	// manifest-less directory holding shard state as a creation crash.
	if opts.Dir != "" {
		if err := writeManifest(opts.Dir, st.manifest()); err != nil {
			closeAll(st.shards)
			return nil, fmt.Errorf("shard: writing manifest: %w", err)
		}
		st.dir = opts.Dir
	}
	return st, nil
}

// buildRoute precomputes how a constraint's probes find their shard under
// the store's placements.
func (st *Store) buildRoute(ac schema.AccessConstraint) (*route, error) {
	pl, ok := st.place[ac.Rel]
	if !ok {
		return nil, fmt.Errorf("shard: unknown relation %s", ac.Rel)
	}
	rt := &route{rel: ac.Rel, pinnedTo: -1}
	switch pl.kind {
	case pinned:
		rt.pinnedTo = pl.home
	case partitioned:
		pos, err := positionsIn(pl.key, ac.X)
		if err != nil {
			return nil, fmt.Errorf("shard: constraint %s does not contain relation %s's shard key (%s): %w",
				ac, ac.Rel, strings.Join(pl.key, ", "), err)
		}
		rt.keyInX = pos
	default:
		return nil, fmt.Errorf("shard: cannot route constraint %s: relation %s's tuples are spread round-robin with no shard key; rebuild the store with the wider schema", ac, ac.Rel)
	}
	return rt, nil
}

// derivePlacement picks a relation's distribution rule: partition by the
// X-set of an anchor constraint (one whose X every other constraint's X
// contains), pin to one shard when no anchor exists, round-robin when the
// relation has no constraints. An anchor with empty X (a bounded-domain
// constraint ∅ → (Y, N)) degenerates to pinning: all its probes and all
// the relation's tuples hash the same key anyway.
func derivePlacement(rs *schema.Relation, acs []schema.AccessConstraint, P int) (*placement, error) {
	rel := rs.Name()
	if len(acs) == 0 {
		return &placement{kind: roundRobin}, nil
	}
	var anchor []string
	found := false
	for _, c := range acs {
		ok := true
		for _, o := range acs {
			if !subsetSorted(c.X, o.X) {
				ok = false
				break
			}
		}
		if ok {
			anchor = c.X
			found = true
			break
		}
	}
	if !found || len(anchor) == 0 {
		return &placement{kind: pinned, home: int(hashKey(rel, nil) % uint64(P))}, nil
	}
	pos, err := rs.Positions(anchor)
	if err != nil {
		return nil, fmt.Errorf("shard: relation %s: %w", rel, err)
	}
	key := append([]string(nil), anchor...)
	sort.Strings(key)
	return &placement{kind: partitioned, key: key, keyPos: pos}, nil
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

// routeTuple returns the owning shard of a tuple under a placement,
// advancing the round-robin cursor for constraint-less relations.
func (st *Store) routeTuple(pl *placement, rel string, t value.Tuple) int {
	switch pl.kind {
	case partitioned:
		var kb [value.KeyBufSize]byte
		return int(hashKey(rel, value.AppendKeyOf(kb[:0], t, pl.keyPos)) % uint64(st.p))
	case pinned:
		return pl.home
	default:
		st.rrMu.Lock()
		s := st.rrNext[rel]
		st.rrNext[rel] = (s + 1) % st.p
		st.rrMu.Unlock()
		return s
	}
}

// NumShards returns the partition count P.
func (st *Store) NumShards() int { return st.p }

// Catalog returns the catalog the store conforms to.
func (st *Store) Catalog() *schema.Catalog { return st.cat }

// Access returns the access schema every write is checked against — the
// current one, after any ExtendAccess calls. It reads shard 0's live
// store, which an extension commits FIRST: by the time the store's
// Version (the epoch sum) reaches its post-extension value the new
// schema is already published, so the engine's version-before-schema
// read ordering can never tag a pre-extension analysis with the
// post-extension version (the sticky-error hazard).
func (st *Store) Access() *schema.AccessSchema { return st.shards[0].Access() }

// Base returns the store's current data as one sealed database: the
// current view, frozen (View.Freeze). It costs O(|D|) and is never
// consulted for serving; it exists for callers that want the data itself
// (baseline comparisons, duplicate streams). A store recovered by Open
// answers it like a store built by New.
func (st *Store) Base() (*storage.Database, error) { return st.View().Freeze() }

// Mode returns the shards' violation policy.
func (st *Store) Mode() live.Mode { return st.mode }

// Shard returns one partition's live store (read-mostly introspection;
// writing to it directly bypasses routing and will corrupt placement).
func (st *Store) Shard(i int) *live.Store { return st.shards[i] }

// PlacementOf describes a relation's distribution rule, for diagnostics:
// "partitioned by (a, b)", "pinned to shard 3" or "round-robin".
func (st *Store) PlacementOf(rel string) (string, error) {
	pl, ok := st.place[rel]
	if !ok {
		return "", fmt.Errorf("shard: unknown relation %s", rel)
	}
	switch pl.kind {
	case partitioned:
		return fmt.Sprintf("partitioned by (%s)", strings.Join(pl.key, ", ")), nil
	case pinned:
		return fmt.Sprintf("pinned to shard %d", pl.home), nil
	default:
		return "round-robin", nil
	}
}

// Apply validates and commits one batch of writes. Ops are routed to
// their owning shards and the per-shard sub-batches commit in parallel,
// each with the atomicity and violation semantics of live.Store.Apply
// (Strict: first violation aborts that shard's sub-batch; Permissive:
// violators are quarantined on their shard). The cross-shard batch is not
// atomic: a failing sub-batch does not roll back sub-batches that
// committed on other shards — shards hold disjoint tuples, so the
// exposure is a torn batch, never torn data. The first sub-batch error
// (in shard order) is returned.
func (st *Store) Apply(ops []live.Op) error {
	st.viewMu.RLock()
	defer st.viewMu.RUnlock()

	buckets := make([][]live.Op, len(st.shards))
	rr := rrBatch{}
	for _, op := range ops {
		pl, ok := st.place[op.Rel]
		if !ok {
			return fmt.Errorf("shard: unknown relation %s", op.Rel)
		}
		s, err := st.routeOp(pl, op, &rr)
		if err != nil {
			return err
		}
		buckets[s] = append(buckets[s], op)
	}
	var active []int
	for s, sub := range buckets {
		if len(sub) > 0 {
			active = append(active, s)
		}
	}

	// Scatter: the last active bucket runs on the calling goroutine, so a
	// single-shard batch pays no handoff at all.
	errs := make([]error, len(st.shards))
	var wg sync.WaitGroup
	for k, s := range active {
		if k == len(active)-1 {
			_, errs[s] = st.shards[s].Apply(buckets[s])
			break
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			_, errs[s] = st.shards[s].Apply(buckets[s])
		}(s)
	}
	wg.Wait()
	for _, s := range active {
		if errs[s] != nil {
			return errs[s]
		}
	}
	return nil
}

// rrBatch is one Apply's batch-local routing state for round-robin
// (constraint-less) relations: which shards this batch's own inserts
// went to (FIFO, consumed by later deletes of the same tuple, mirroring
// live's in-batch insert-then-delete semantics) and how many committed
// occurrences per shard earlier deletes of this batch already claimed.
type rrBatch struct {
	// pendingIns: rel → tuple key → shards of not-yet-consumed inserts.
	pendingIns map[string]map[string][]int
	// claimed: rel → tuple key → per-shard count of committed
	// occurrences already routed to by this batch's deletes.
	claimed map[string]map[string][]int
}

func (rr *rrBatch) push(rel, key string, s int) {
	if rr.pendingIns == nil {
		rr.pendingIns = make(map[string]map[string][]int)
	}
	m := rr.pendingIns[rel]
	if m == nil {
		m = make(map[string][]int)
		rr.pendingIns[rel] = m
	}
	m[key] = append(m[key], s)
}

func (rr *rrBatch) pop(rel, key string) (int, bool) {
	q := rr.pendingIns[rel][key]
	if len(q) == 0 {
		return 0, false
	}
	rr.pendingIns[rel][key] = q[1:]
	return q[0], true
}

func (rr *rrBatch) claim(rel, key string, s, p int) int {
	if rr.claimed == nil {
		rr.claimed = make(map[string]map[string][]int)
	}
	m := rr.claimed[rel]
	if m == nil {
		m = make(map[string][]int)
		rr.claimed[rel] = m
	}
	if m[key] == nil {
		m[key] = make([]int, p)
	}
	m[key][s]++
	return m[key][s]
}

func (rr *rrBatch) claimedOn(rel, key string, s int) int {
	if c := rr.claimed[rel][key]; c != nil {
		return c[s]
	}
	return 0
}

// routeOp returns the owning shard of one write op. Inserts follow the
// placement; deletes of partitioned/pinned relations route by the
// tuple's own values (content-addressed, like the probes); deletes of
// round-robin relations probe the shards' live occurrence counts —
// committed occurrences first (in shard order), then this batch's own
// pending inserts — so an in-batch insert-then-delete lands on one shard
// in order, exactly as a single live store would process it.
func (st *Store) routeOp(pl *placement, op live.Op, rr *rrBatch) (int, error) {
	if pl.kind != roundRobin {
		switch pl.kind {
		case partitioned:
			// Validate arity here only as far as routing needs; the shard's
			// live store re-checks the op structurally.
			for _, p := range pl.keyPos {
				if p >= len(op.Tuple) {
					return 0, fmt.Errorf("shard: relation %s op tuple %s too short for shard key", op.Rel, op.Tuple)
				}
			}
			var kb [value.KeyBufSize]byte
			return int(hashKey(op.Rel, value.AppendKeyOf(kb[:0], op.Tuple, pl.keyPos)) % uint64(len(st.shards))), nil
		default:
			return pl.home, nil
		}
	}
	key := op.Tuple.Key()
	if op.Kind == live.OpInsert {
		st.rrMu.Lock()
		s := st.rrNext[op.Rel]
		st.rrNext[op.Rel] = (s + 1) % len(st.shards)
		st.rrMu.Unlock()
		rr.push(op.Rel, key, s)
		return s, nil
	}
	// Delete: first shard with a committed live occurrence this batch
	// has not already claimed (a concurrent Apply may still race it to
	// the occurrence, in which case that shard reports the miss — the
	// same outcome two racing deletes have on a single store).
	for s := range st.shards {
		if st.shards[s].LiveCount(op.Rel, op.Tuple) > rr.claimedOn(op.Rel, key, s) {
			rr.claim(op.Rel, key, s, len(st.shards))
			return s, nil
		}
	}
	if s, ok := rr.pop(op.Rel, key); ok {
		return s, nil
	}
	// No live occurrence anywhere. Strict stores fail the batch before
	// any sub-batch commits (live's no-state-changed contract); a
	// permissive store hands the op to shard 0 to be quarantined there,
	// preserving live.Store's violation bookkeeping.
	if st.mode == live.Strict {
		return 0, &live.NotFoundError{Rel: op.Rel, Tuple: op.Tuple}
	}
	return 0, nil
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
// (live.Store.Compact), shard-parallel. Pinned views stay valid.
func (st *Store) Compact() error {
	st.viewMu.RLock()
	defer st.viewMu.RUnlock()
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
	return nil
}

// Epochs returns the current epoch vector (one live epoch per shard).
// For a consistent cut, use View.
func (st *Store) Epochs() []uint64 {
	out := make([]uint64, len(st.shards))
	for s, ls := range st.shards {
		out[s] = ls.Epoch()
	}
	return out
}

// SchemaVersion is the monotone schema change counter: the sum of the
// shards' extension counts. A shard-consistent ExtendAccess commits
// shard 0 first (whose schema Access() reads), so a reader that loads
// this sum first and Access() second can never pair the fully advanced
// version with the old schema — the ordering the engine's cached-error
// invalidation relies on. Data epochs deliberately do not advance it: a
// boundedness verdict depends only on the query and the schema, so
// ingest churn must not defeat the engine's error cache.
func (st *Store) SchemaVersion() uint64 {
	var v uint64
	for _, ls := range st.shards {
		v += ls.SchemaVersion()
	}
	return v
}

// ExtendAccess widens the access schema with one more constraint
// X → (Y, N) at runtime, shard-consistently: writers and view pins are
// excluded for the duration, every shard's live data is validated
// against the new bound first, and only then does each shard publish
// the extension — so a failure (a *storage.ViolationError from the
// offending shard) leaves the whole store unchanged.
//
// The new constraint must not break the placement invariant that makes
// scatter-gather exact: on a partitioned relation its X must contain
// the relation's shard key (every group then still lives whole on one
// shard); pinned relations accept any constraint; constraint-less
// (round-robin) relations accept none — their tuples are spread without
// a key, so extending them requires rebuilding the store with the wider
// schema. Extending with a constraint already in the schema is a no-op.
func (st *Store) ExtendAccess(ac schema.AccessConstraint) error {
	st.viewMu.Lock()
	defer st.viewMu.Unlock()

	if err := ac.Validate(st.cat); err != nil {
		return fmt.Errorf("shard: extending access schema: %w", err)
	}
	if _, ok := st.routes[ac.Key()]; ok {
		return nil
	}
	rt, err := st.buildRoute(ac)
	if err != nil {
		return err
	}

	// Two-phase: stage (validate) every shard before committing any.
	// Writers are excluded (viewMu held exclusively), so the staged
	// verdicts stay valid and each shard's live-data scan is paid once.
	// Commit order matters: shard 0 first, because Access() reads shard
	// 0's schema and Version() reaches its final sum only at the last
	// commit — so version-then-schema readers never pair the new version
	// with the old schema.
	staged := make([]*live.StagedExtension, len(st.shards))
	for s, ls := range st.shards {
		se, err := ls.StageExtension(ac)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		staged[s] = se
	}
	for s, se := range staged {
		if se == nil {
			continue // this shard already maintained the constraint
		}
		if err := se.Commit(); err != nil {
			return fmt.Errorf("shard %d: %w (extension committed on earlier shards — store inconsistent, rebuild it)", s, err)
		}
	}

	newRoutes := make(map[string]*route, len(st.routes)+1)
	for k, r := range st.routes {
		newRoutes[k] = r
	}
	newRoutes[ac.Key()] = rt
	st.routes = newRoutes
	return nil
}

// EpochKey renders the current epoch vector for display (/stats,
// /healthz). Unlike View().EpochKey() it does not exclude writers or
// pin snapshots — the vector is read shard by shard, so it is not a
// consistent cut and must not key caches.
func (st *Store) EpochKey() string {
	snaps := make([]*live.Snapshot, len(st.shards))
	for s, ls := range st.shards {
		snaps[s] = ls.Snapshot()
	}
	return (&View{snaps: snaps}).EpochKey()
}

// NumTuples returns |D|: live tuples across all shards and relations.
func (st *Store) NumTuples() int64 {
	var n int64
	for _, ls := range st.shards {
		n += ls.Snapshot().NumTuples()
	}
	return n
}

// ShardSizes returns the live tuple count of each shard — the balance
// view.
func (st *Store) ShardSizes() []int64 {
	out := make([]int64, len(st.shards))
	for s, ls := range st.shards {
		out[s] = ls.Snapshot().NumTuples()
	}
	return out
}

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

// ShardStats returns each shard's read-side counters — with ShardSizes,
// the observability surface for probe and data balance.
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
// single logical epoch; use Epochs() for the vector.
func (st *Store) IngestStats() live.IngestStats {
	var out live.IngestStats
	for _, ls := range st.shards {
		ig := ls.IngestStats()
		out.Batches += ig.Batches
		out.OpsApplied += ig.OpsApplied
		out.OpsRejected += ig.OpsRejected
		out.OpsQuarantined += ig.OpsQuarantined
		out.Epochs += ig.Epochs
		out.Flattens += ig.Flattens
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

// View pins one epoch vector atomically: writers are excluded for the
// duration of the P snapshot loads, so the vector is a consistent cut —
// a committed batch is either entirely visible or entirely invisible.
// The returned view is immutable, safe for any number of concurrent
// readers, and implements exec.Store and exec.PartitionedStore.
func (st *Store) View() *View {
	st.viewMu.Lock()
	snaps := make([]*live.Snapshot, len(st.shards))
	for s, ls := range st.shards {
		snaps[s] = ls.Snapshot()
	}
	routes := st.routes
	st.viewMu.Unlock()
	return &View{st: st, snaps: snaps, routes: routes}
}
