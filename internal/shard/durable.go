package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/storage"
)

// manifestFileName is the sharded store's manifest, written at the root
// of the durable directory AFTER every shard directory is initialized.
const manifestFileName = "MANIFEST.json"

// manifestVersion is the manifest format version this build writes.
const manifestVersion = 1

// ErrShardMismatch reports that the shard count a caller requested
// disagrees with the one recorded in a directory's manifest. CLIs match
// it with errors.Is to turn a mis-typed -shards flag into a clear
// message instead of a rebuilt store.
var ErrShardMismatch = errors.New("shard count does not match the directory's manifest")

// ManifestPlacement is one relation's persisted distribution rule.
// Placements are persisted rather than re-derived at Open because the
// recovered schema can be wider than the one the store was created with
// (extensions replay from the WALs): re-deriving from the wider schema
// could pick a different anchor — or widen an empty key — and silently
// orphan every tuple already placed.
type ManifestPlacement struct {
	// Kind is "partitioned" for a non-empty shard key and "pinned" for
	// the empty one. Older builds also wrote "round-robin", which Open
	// refuses.
	Kind string `json:"kind"`
	// Key lists the shard-key attributes, sorted (partitioned only).
	Key []string `json:"key,omitempty"`
	// Home is the shard the empty key hashes to (pinned only).
	Home int `json:"home,omitempty"`
}

// Manifest records the facts about a durable sharded store that are not
// re-derivable from the per-shard state: the partition count and each
// relation's placement.
type Manifest struct {
	Version    int                          `json:"version"`
	Shards     int                          `json:"shards"`
	Placements map[string]ManifestPlacement `json:"placements"`
}

// Recovery aggregates what Open did to bring each shard back.
type Recovery struct {
	// PerShard holds each shard's live-store recovery report, in shard
	// order (nil for a freshly created directory).
	PerShard []*live.Recovery
	// Fresh reports that the directory held no store and Open created
	// one.
	Fresh bool
}

// ReplayedOps sums the WAL ops replayed across shards.
func (r *Recovery) ReplayedOps() int64 {
	var n int64
	for _, pr := range r.PerShard {
		n += pr.ReplayedOps
	}
	return n
}

// TruncatedRecords sums the torn or corrupt WAL frames dropped across
// shards.
func (r *Recovery) TruncatedRecords() int64 {
	var n int64
	for _, pr := range r.PerShard {
		n += pr.TruncatedRecords
	}
	return n
}

// shardDirName is shard s's subdirectory under the store root.
func shardDirName(s int) string { return fmt.Sprintf("shard-%03d", s) }

// manifest renders the store's current placements for persistence.
func (st *Store) manifest() *Manifest {
	m := &Manifest{Version: manifestVersion, Shards: st.p,
		Placements: make(map[string]ManifestPlacement, len(st.place))}
	for rel, pl := range st.place {
		m.Placements[rel] = placementToManifest(pl)
	}
	return m
}

func placementToManifest(pl *placement) ManifestPlacement {
	if len(pl.key) == 0 {
		return ManifestPlacement{Kind: "pinned", Home: pl.tuples.home}
	}
	return ManifestPlacement{Kind: "partitioned", Key: pl.key}
}

// placementFromManifest rebuilds a relation's in-memory placement,
// re-resolving attribute positions against the (possibly reordered)
// catalog. A pinned entry must name the shard the empty key hashes to.
func placementFromManifest(rs *schema.Relation, mp ManifestPlacement, P int) (*placement, error) {
	var key []string
	switch mp.Kind {
	case "partitioned":
		if len(mp.Key) == 0 {
			return nil, fmt.Errorf("shard: manifest: relation %s partitioned with empty key", rs.Name())
		}
		key = mp.Key
	case "pinned":
	case "round-robin":
		return nil, fmt.Errorf("shard: manifest: relation %s is placed round-robin, which this build no longer reads; rebuild the store", rs.Name())
	default:
		return nil, fmt.Errorf("shard: manifest: relation %s has unknown placement kind %q", rs.Name(), mp.Kind)
	}
	pl, err := newPlacement(rs, key, P)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if mp.Kind == "pinned" && mp.Home != pl.tuples.home {
		return nil, fmt.Errorf("shard: manifest: relation %s pinned to shard %d, but its empty shard key hashes to shard %d of %d",
			rs.Name(), mp.Home, pl.tuples.home, P)
	}
	return pl, nil
}

// ReadManifest reads and validates a sharded store's manifest. A missing
// manifest returns an error matching fs.ErrNotExist.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFileName))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: manifest %s: %w", dir, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest %s: format version %d, this build reads %d", dir, m.Version, manifestVersion)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("shard: manifest %s: shard count %d < 1", dir, m.Shards)
	}
	return &m, nil
}

// writeManifest installs a manifest atomically: temp file, fsync, rename,
// directory fsync — the same discipline segment files use.
func writeManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, manifestFileName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Open recovers a durable sharded store from dir: it reads the manifest,
// rebuilds placements from it, recovers every shard's live store in
// parallel (each loading its newest valid checkpoint segment and
// replaying its WAL tail), heals schema divergence a crash mid-extension
// can leave between shards, and finally applies constraints from acc the
// recovered schema lacks as fresh (logged) extensions.
//
// opts.Shards must be 0 (accept the manifest's count) or equal to it; a
// disagreement fails with an error matching ErrShardMismatch. On a
// directory holding no store, Open creates one with opts.Shards shards
// (acc required). opts.Mode must match the mode the directory was
// written under for replay to be deterministic; opts.Dir is ignored
// (dir wins).
func Open(dir string, cat *schema.Catalog, acc *schema.AccessSchema, opts Options) (*Store, *Recovery, error) {
	if cat == nil {
		return nil, nil, fmt.Errorf("shard: Open requires a catalog")
	}
	m, err := ReadManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		if _, serr := os.Stat(filepath.Join(dir, shardDirName(0))); serr == nil {
			return nil, nil, fmt.Errorf("shard: %s holds shard directories but no manifest (creation crashed?); remove the directory and rebuild", dir)
		}
		if acc == nil {
			return nil, nil, fmt.Errorf("shard: %s holds no store state and no access schema was provided", dir)
		}
		st, nerr := New(storage.NewDatabase(cat), acc, Options{Shards: opts.Shards, Mode: opts.Mode, Dir: dir})
		if nerr != nil {
			return nil, nil, nerr
		}
		return st, &Recovery{Fresh: true}, nil
	}
	if err != nil {
		return nil, nil, err
	}
	if opts.Shards != 0 && opts.Shards != m.Shards {
		return nil, nil, fmt.Errorf("shard: %s: requested %d shards, manifest records %d: %w",
			dir, opts.Shards, m.Shards, ErrShardMismatch)
	}
	P := m.Shards

	st := &Store{
		cat:    cat,
		mode:   opts.Mode,
		p:      P,
		dir:    dir,
		place:  make(map[string]*placement, cat.NumRelations()),
		routes: make(map[string]*locator),
	}

	// Placements come from the manifest; relations the catalog gained
	// since the store was created get a freshly derived rule (recorded
	// back into the manifest below, so the derivation happens only once).
	manifestDirty := false
	for _, rs := range cat.Relations() {
		rel := rs.Name()
		if mp, ok := m.Placements[rel]; ok {
			pl, err := placementFromManifest(rs, mp, P)
			if err != nil {
				return nil, nil, err
			}
			st.place[rel] = pl
			continue
		}
		var acs []schema.AccessConstraint
		if acc != nil {
			acs = acc.ForRelation(rel)
		}
		pl, err := derivePlacement(rs, acs, P)
		if err != nil {
			return nil, nil, err
		}
		st.place[rel] = pl
		m.Placements[rel] = placementToManifest(pl)
		manifestDirty = true
	}

	// Recover the shards in parallel, each with a nil access schema: the
	// schema each shard persisted (checkpoint + replayed extensions) is
	// authoritative; caller widening happens once, below, through the
	// sharded extension path.
	st.shards = make([]*live.Store, P)
	recs := make([]*live.Recovery, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for s := 0; s < P; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st.shards[s], recs[s], errs[s] = live.Open(
				filepath.Join(dir, shardDirName(s)), cat, nil, live.Options{Mode: opts.Mode})
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			closeAll(st.shards)
			return nil, nil, fmt.Errorf("shard: recovering shard %d: %w", s, err)
		}
	}

	// Heal schema divergence. A crash between an extension's per-shard
	// commits leaves a prefix of the shards (shard 0 first) holding a
	// constraint the rest lack; every durably committed constraint was
	// fsynced on its shard before publication, so the union across shards
	// is exactly the set of constraints that ever committed anywhere.
	// Re-extending the shards that missed one is idempotent and restores
	// the all-shards-agree invariant ExtendAccess maintains.
	union := make([]schema.AccessConstraint, 0)
	seen := make(map[string]bool)
	for _, ls := range st.shards {
		for _, ac := range ls.Access().Constraints() {
			if !seen[ac.Key()] {
				seen[ac.Key()] = true
				union = append(union, ac)
			}
		}
	}
	for s, ls := range st.shards {
		have := make(map[string]bool)
		for _, ac := range ls.Access().Constraints() {
			have[ac.Key()] = true
		}
		for _, ac := range union {
			if have[ac.Key()] {
				continue
			}
			if err := ls.ExtendAccess(ac); err != nil {
				closeAll(st.shards)
				return nil, nil, fmt.Errorf("shard: healing shard %d with %s: %w", s, ac, err)
			}
		}
	}

	// Probe routes for the recovered schema.
	for _, ac := range union {
		rt, err := st.buildRoute(ac)
		if err != nil {
			closeAll(st.shards)
			return nil, nil, err
		}
		st.routes[ac.Key()] = rt
	}

	// Caller widening: constraints acc holds that the store does not are
	// applied through the normal sharded extension path (validated on
	// every shard, logged, shard 0 committed first).
	if acc != nil {
		for _, ac := range acc.Constraints() {
			if _, ok := st.routes[ac.Key()]; ok {
				continue
			}
			if err := st.ExtendAccess(ac); err != nil {
				closeAll(st.shards)
				return nil, nil, fmt.Errorf("shard: extending recovered store with %s: %w", ac, err)
			}
		}
	}

	if manifestDirty {
		if err := writeManifest(dir, m); err != nil {
			closeAll(st.shards)
			return nil, nil, fmt.Errorf("shard: updating manifest: %w", err)
		}
	}
	return st, &Recovery{PerShard: recs}, nil
}

// Close checkpoints and closes every shard's live store, shard-parallel,
// excluding writers for the duration. In-memory stores are a no-op; safe
// to call more than once. The first per-shard error (in shard order) is
// returned, after every shard has been given the chance to close.
func (st *Store) Close() error {
	st.viewMu.Lock()
	defer st.viewMu.Unlock()
	errs := make([]error, len(st.shards))
	var wg sync.WaitGroup
	for s, ls := range st.shards {
		wg.Add(1)
		go func(s int, ls *live.Store) {
			defer wg.Done()
			errs[s] = ls.Close()
		}(s, ls)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Dir returns the store's durable root directory ("" for in-memory
// stores).
func (st *Store) Dir() string { return st.dir }

// closeAll best-effort closes the non-nil stores of a partially built
// shard slice.
func closeAll(shards []*live.Store) {
	for _, ls := range shards {
		if ls != nil {
			ls.Close()
		}
	}
}
