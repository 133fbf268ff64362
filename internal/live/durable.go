package live

import (
	"fmt"
	"os"

	"bcq/internal/schema"
	"bcq/internal/segment"
	"bcq/internal/storage"
	"bcq/internal/wal"
)

// corruptSuffix is appended to the name of a segment file that failed
// validation at recovery (see Recover).
const corruptSuffix = ".corrupt"

// NewShard builds a shard of a durable sharded store (shard.New): an
// in-memory store (New) whose base is written to dir as the epoch-0
// checkpoint segment, and whose log is its sharded store's. dir must hold
// no segment yet. The store keeps its checkpoint segments in dir, and
// Compact doubles as a checkpoint. It reports log from WAL but never
// appends to it, resets it or closes it: the sharded store logs every
// commit of its shards itself (Stage, StageExtension) and checkpoints them
// all before it resets the log, so Apply and ExtendAccess, which would
// publish unlogged, are refused.
func NewShard(base *storage.Database, acc *schema.AccessSchema, dir string, log *wal.WAL) (*Store, error) {
	st, err := newStore(base, acc, 0)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if len(segment.List(dir)) > 0 {
		return nil, fmt.Errorf("live: %s already holds store state", dir)
	}
	info, err := segment.Write(dir, st.Base(), acc, 0)
	if err != nil {
		return nil, fmt.Errorf("live: writing initial checkpoint: %w", err)
	}
	st.dir, st.w = dir, log
	st.segBytes.Store(info.Bytes)
	st.segWrites.Add(1)
	return st, nil
}

// Recover loads the newest valid checkpoint segment of dir (falling back
// to an older retained one when the newest fails validation) and returns
// the shard it holds, at the segment's epoch, with log as its log (see
// NewShard), and the segment files it found corrupt, newest first. Each of
// those is renamed aside, to its name plus ".corrupt", so that a later
// checkpoint neither meets its name nor counts it among those retained.
// Recover reads no log: the sharded store's Open replays its one log over
// the shards Recover gave it. A directory without a loadable segment is
// an error.
func Recover(dir string, cat *schema.Catalog, log *wal.WAL) (*Store, []string, error) {
	var (
		corrupt   []string
		base      *storage.Database
		segAcc    *schema.AccessSchema
		baseEpoch uint64
	)
	for _, s := range segment.List(dir) {
		db, a, epoch, err := segment.Load(s.Path, cat)
		if err != nil {
			corrupt = append(corrupt, s.Path)
			continue
		}
		base, segAcc, baseEpoch = db, a, epoch
		break
	}
	if base == nil {
		// State may exist, but none of it validates: refuse to guess.
		return nil, nil, fmt.Errorf("live: %s holds no loadable segment (%d corrupt: %v)",
			dir, len(corrupt), corrupt)
	}
	// The store resumes below the epochs of the corrupt segments, and its
	// later checkpoints may reach them: move them out of the way. Had they
	// stayed, Prune would keep them as the retained fallback.
	for _, p := range corrupt {
		if err := os.Rename(p, p+corruptSuffix); err != nil {
			return nil, nil, fmt.Errorf("live: moving corrupt segment aside: %w", err)
		}
	}
	st, err := newStore(base, segAcc, baseEpoch)
	if err != nil {
		return nil, nil, err
	}
	st.dir, st.w = dir, log
	st.segEpoch.Store(baseEpoch)
	return st, corrupt, nil
}

// Dir returns the store's durable directory ("" for in-memory stores).
func (st *Store) Dir() string { return st.dir }

// WAL exposes the store's write-ahead log, its sharded store's one log
// (nil for in-memory stores): metric bridges read its counters and crash
// tests arm its fail points.
func (st *Store) WAL() *wal.WAL { return st.w }

// SegmentEpoch returns the epoch of the newest checkpoint segment (0
// before any checkpoint).
func (st *Store) SegmentEpoch() uint64 { return st.segEpoch.Load() }
