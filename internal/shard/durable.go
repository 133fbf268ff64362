package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/segment"
	"bcq/internal/storage"
	"bcq/internal/wal"
)

// manifestFileName is the sharded store's manifest, written at the root
// of the durable directory AFTER every shard directory is initialized.
const manifestFileName = "MANIFEST.json"

// walFileName is the store's one write-ahead log, at the root of the
// durable directory.
const walFileName = "wal.log"

// manifestVersion is the manifest format version this build writes.
// Version 1 directories, where each shard kept a log of its own, are
// migrated by Open (migrateV1).
const manifestVersion = 2

// ErrShardMismatch reports that the shard count a caller requested
// disagrees with the one recorded in a directory's manifest. CLIs match
// it with errors.Is to turn a mis-typed -shards flag into a clear
// message instead of a rebuilt store.
var ErrShardMismatch = errors.New("shard count does not match the directory's manifest")

// ManifestPlacement is one relation's persisted distribution rule.
// Placements are persisted rather than re-derived at Open because the
// recovered schema can be wider than the one the store was created with
// (extensions replay from the log): re-deriving from the wider schema
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

// Recovery reports what Open did to bring a durable sharded store back.
type Recovery struct {
	// Fresh reports that the directory held no store and Open created
	// one.
	Fresh bool
	// Migrated reports that the directory was written in manifest version
	// 1, with a log per shard, and Open migrated it (see migrateV1).
	Migrated bool
	// CorruptSegments lists the checkpoint segments, over all shards,
	// that failed validation and were skipped.
	CorruptSegments []string
	// ReplayedBatches, ReplayedOps and ReplayedExtensions count the work
	// the log replayed, and a migration the shards' logs.
	ReplayedBatches    int64
	ReplayedOps        int64
	ReplayedExtensions int64
	// TruncatedRecords counts torn or corrupt frames cut from the log's
	// tail (also surfaced as bcq_wal_truncated_records_total).
	TruncatedRecords int64
	// SkippedRecords counts records every shard they name had already
	// folded into its checkpoint — leftovers of a crash between the
	// shards' checkpoints and the log's reset.
	SkippedRecords int64
	// GapRecords counts records dropped, from the first whose epoch on
	// some shard left a continuity gap with that shard's checkpoint: the
	// conservative stop when a newest checkpoint was lost. The log is cut
	// there (a migrated shard's log is removed), so they are counted by the
	// one Open that dropped them.
	GapRecords int64
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
	if m.Version < 1 || m.Version > manifestVersion {
		return nil, fmt.Errorf("shard: manifest %s: format version %d, this build reads 1 to %d", dir, m.Version, manifestVersion)
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
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory, so a rename or removal in it is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Open recovers a durable sharded store from dir: it reads the manifest,
// rebuilds placements from it, loads every shard's newest valid
// checkpoint segment in parallel (live.Recover), replays the store's log
// — each sub-batch on its shard, skipping those at or below that shard's
// checkpoint epoch — and finally applies constraints from acc the
// recovered schema lacks as fresh (logged) extensions. A directory an
// older build wrote with a log per shard (manifest version 1) is migrated
// before that (migrateV1). One an older build's single live store wrote,
// with segments and a log at its root and no manifest, is refused.
//
// opts.Shards must be 0 (accept the manifest's count) or equal to it; a
// disagreement fails with an error matching ErrShardMismatch. On a
// directory holding no store, Open creates one with opts.Shards shards
// (acc required). opts.Dir is ignored (dir wins).
func Open(dir string, cat *schema.Catalog, acc *schema.AccessSchema, opts Options) (*Store, *Recovery, error) {
	if cat == nil {
		return nil, nil, fmt.Errorf("shard: Open requires a catalog")
	}
	m, err := ReadManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		if err := refuseSingleLiveStore(dir); err != nil {
			return nil, nil, err
		}
		for _, name := range []string{shardDirName(0), walFileName} {
			if _, serr := os.Stat(filepath.Join(dir, name)); serr == nil {
				return nil, nil, fmt.Errorf("shard: %s holds store state but no manifest (creation crashed?); remove the directory and rebuild", dir)
			}
		}
		if acc == nil {
			return nil, nil, fmt.Errorf("shard: %s holds no store state and no access schema was provided", dir)
		}
		st, nerr := New(storage.NewDatabase(cat), acc, Options{Shards: opts.Shards, Dir: dir})
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
	rec := &Recovery{}

	st := &Store{
		cat:   cat,
		p:     P,
		dir:   dir,
		place: make(map[string]*placement, cat.NumRelations()),
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

	w, records, err := wal.Open(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, nil, err
	}
	st.w = w
	rec.TruncatedRecords = w.Stats().TruncatedRecords

	// Load the shards' checkpoints in parallel, each with the schema it
	// persisted: caller widening happens once, below, through the sharded
	// extension path.
	st.shards = make([]*live.Store, P)
	corrupt := make([][]string, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for s := 0; s < P; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st.shards[s], corrupt[s], errs[s] = live.Recover(
				filepath.Join(dir, shardDirName(s)), cat, w)
		}(s)
	}
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("shard: recovering shard %d: %w", s, err)
		}
		rec.CorruptSegments = append(rec.CorruptSegments, corrupt[s]...)
	}
	gap, err := st.replay(records, rec)
	if err == nil && gap < len(records) {
		// Cut the log at the gap, so the store's next commits are not
		// appended behind records no replay will reach.
		rec.GapRecords = int64(len(records) - gap)
		if err = w.Cut(gap); err != nil {
			err = fmt.Errorf("shard: cutting the log at the gap: %w", err)
		}
	}
	if err == nil && m.Version == 1 {
		err = st.migrateV1(m, rec)
	}
	if err != nil {
		w.Close()
		return nil, nil, err
	}

	// Probe routes for the recovered schema, which every shard shares (an
	// extension is one record, replayed on every shard it names), and the
	// first cut.
	want := constraintKeys(st.shards[0].Access())
	for s, ls := range st.shards {
		if got := constraintKeys(ls.Access()); !slices.Equal(got, want) {
			w.Close()
			return nil, nil, fmt.Errorf("shard: %s: shard %d recovered constraints %v, shard 0 %v", dir, s, got, want)
		}
	}
	routes := make(map[string]*locator)
	for _, ac := range st.shards[0].Access().Constraints() {
		rt, err := st.buildRoute(ac)
		if err != nil {
			w.Close()
			return nil, nil, err
		}
		routes[ac.Key()] = rt
	}
	st.publish(routes)

	// Caller widening: constraints acc holds that the store does not are
	// applied through the normal sharded extension path (validated on
	// every shard, logged, committed on every shard, then published).
	if acc != nil {
		for _, ac := range acc.Constraints() {
			if _, ok := routes[ac.Key()]; ok {
				continue
			}
			if err := st.ExtendAccess(ac); err != nil {
				w.Close()
				return nil, nil, fmt.Errorf("shard: extending recovered store with %s: %w", ac, err)
			}
		}
	}

	if manifestDirty {
		if err := writeManifest(dir, m); err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("shard: updating manifest: %w", err)
		}
	}
	return st, rec, nil
}

// refuseSingleLiveStore fails on a directory with checkpoint segments at
// its root: an older build's durable single live store, which kept them
// there beside its own log and wrote no manifest. New and Open refuse it
// alike; no migration exists.
func refuseSingleLiveStore(dir string) error {
	if len(segment.List(dir)) == 0 {
		return nil
	}
	return fmt.Errorf("shard: %s holds the checkpoint segments and log of a single live store, which an older build wrote, and no manifest; this build opens only sharded directories: rebuild the store with shard.New (Shards: 1 for one store) in an empty directory", dir)
}

// replay applies log records to the shards Open recovered: each
// sub-batch (or extension) goes to the shard it names, through the normal
// admission path, unless that shard's checkpoint already holds it (its
// epoch is at or below the shard's). It stops at the first record whose
// epoch on some shard leaves a gap, before any of it applies, and returns
// that record's index (len(records) when none does): the caller drops
// the records from there.
func (st *Store) replay(records []wal.Record, rec *Recovery) (int, error) {
	for i, r := range records {
		var todo []wal.Sub
		for _, sub := range r.Subs {
			if sub.Shard < 0 || sub.Shard >= st.p {
				return i, fmt.Errorf("shard: wal record %d names shard %d of %d", i, sub.Shard, st.p)
			}
			cur := st.shards[sub.Shard].Epoch()
			if sub.Epoch <= cur {
				continue
			}
			if sub.Epoch != cur+1 {
				return i, nil
			}
			todo = append(todo, sub)
		}
		if len(todo) == 0 {
			rec.SkippedRecords++
			continue
		}
		switch r.Kind {
		case wal.RecShardBatch:
			for _, sub := range todo {
				sb, err := st.shards[sub.Shard].Stage(sub.Ops)
				if err != nil {
					return i, fmt.Errorf("shard: replaying wal record %d on shard %d: %w", i, sub.Shard, err)
				}
				if sb.Epoch() != sub.Epoch {
					sb.Abort()
					return i, fmt.Errorf("shard: replay drift: wal record %d on shard %d publishes epoch %d, logged %d", i, sub.Shard, sb.Epoch(), sub.Epoch)
				}
				sb.Commit()
				rec.ReplayedOps += int64(len(sub.Ops))
			}
			rec.ReplayedBatches++
		case wal.RecShardExtension:
			ac, err := schema.NewAccessConstraint(r.Rel, r.X, r.Y, r.N)
			if err != nil {
				return i, fmt.Errorf("shard: replaying wal extension record %d: %w", i, err)
			}
			for _, sub := range todo {
				se, err := st.shards[sub.Shard].StageExtension(ac)
				if err == nil && (se == nil || se.Epoch() != sub.Epoch) {
					err = fmt.Errorf("replay drift: the extension does not publish epoch %d", sub.Epoch)
				}
				if err == nil {
					err = se.Commit()
				}
				if err != nil {
					return i, fmt.Errorf("shard: replaying wal extension record %d on shard %d: %w", i, sub.Shard, err)
				}
			}
			rec.ReplayedExtensions++
		default:
			return i, fmt.Errorf("shard: wal record %d has kind %d, not a sharded store's", i, r.Kind)
		}
	}
	return len(records), nil
}

// constraintKeys lists a schema's constraint keys, sorted.
func constraintKeys(acc *schema.AccessSchema) []string {
	var keys []string
	for _, ac := range acc.Constraints() {
		keys = append(keys, ac.Key())
	}
	slices.Sort(keys)
	return keys
}

// migrateV1 brings a manifest-version-1 directory, whose shards each kept
// a write-ahead log of their own, to this build's layout. Each shard's
// log replays through replay: its record at epoch e is the sub-record
// {shard, e} of a sharded store's, and a gap stops that shard's replay
// alone. Then every shard checkpoints, the shard logs are removed, and
// the version-2 manifest is written last. A crash before that reopens as
// version 1 and migrates again, which only checkpoints anew. Shards that
// disagree on their schema (an older build's extension torn by a crash)
// are refused: that build heals them when it opens the directory.
func (st *Store) migrateV1(m *Manifest, rec *Recovery) error {
	for s, ls := range st.shards {
		w, records, err := wal.Open(filepath.Join(st.dir, shardDirName(s), walFileName))
		if err != nil {
			return fmt.Errorf("shard: migrating shard %d: %w", s, err)
		}
		w.Close()
		for i, r := range records {
			sub := []wal.Sub{{Shard: s, Epoch: r.Epoch, Ops: r.Ops}}
			switch r.Kind {
			case wal.RecBatch:
				records[i] = wal.Record{Kind: wal.RecShardBatch, Subs: sub}
			case wal.RecExtension:
				records[i] = wal.Record{Kind: wal.RecShardExtension, Rel: r.Rel, X: r.X, Y: r.Y, N: r.N, Subs: sub}
			default:
				return fmt.Errorf("shard: migrating shard %d: wal record %d has kind %d, not a version-1 shard's", s, i, r.Kind)
			}
		}
		gap, err := st.replay(records, rec)
		if err != nil {
			return fmt.Errorf("shard: migrating shard %d: %w", s, err)
		}
		rec.GapRecords += int64(len(records) - gap)
		if got, want := constraintKeys(ls.Access()), constraintKeys(st.shards[0].Access()); !slices.Equal(got, want) {
			return fmt.Errorf("shard: migrating %s: shard %d holds constraints %v, shard 0 %v; open the directory once with the build that wrote it", st.dir, s, got, want)
		}
	}
	if err := st.checkpoint(); err != nil {
		return fmt.Errorf("shard: migrating %s: %w", st.dir, err)
	}
	for s := range st.shards {
		sdir := filepath.Join(st.dir, shardDirName(s))
		if err := os.Remove(filepath.Join(sdir, walFileName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("shard: migrating shard %d: %w", s, err)
		}
		syncDir(sdir)
	}
	m.Version = manifestVersion
	if err := writeManifest(st.dir, m); err != nil {
		return fmt.Errorf("shard: migrating %s: %w", st.dir, err)
	}
	rec.Migrated = true
	return nil
}

// Close checkpoints the store, when its log holds records, publishes the
// cut over the checkpoint and closes the log, excluding writers for the
// duration. In-memory stores are a no-op; safe to call more than once.
func (st *Store) Close() error {
	st.viewMu.Lock()
	defer st.viewMu.Unlock()
	if st.w == nil {
		return nil
	}
	if st.w.HasRecords() {
		err := st.checkpoint()
		st.publish(st.View().routes)
		if err != nil {
			st.w.Close()
			return err
		}
	}
	return st.w.Close()
}

// Dir returns the store's durable root directory ("" for in-memory
// stores).
func (st *Store) Dir() string { return st.dir }

// closeLog closes the log of a store whose construction failed.
func (st *Store) closeLog() {
	if st.w != nil {
		st.w.Close()
	}
}
