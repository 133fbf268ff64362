package live

import (
	"fmt"
	"os"
	"path/filepath"

	"bcq/internal/schema"
	"bcq/internal/segment"
	"bcq/internal/storage"
	"bcq/internal/wal"
)

// walFileName is the write-ahead log's file name inside a store
// directory.
const walFileName = "wal.log"

// corruptSuffix is appended to the name of a segment file that failed
// validation at recovery (see Recovery.CorruptSegments).
const corruptSuffix = ".corrupt"

// Recovery reports what Open did to bring a durable store back: which
// checkpoint segment it resumed from and what the WAL tail replayed. The
// crash-recovery property tests and the sharded store's recovery
// cross-checks read it; a Store does not retain it.
type Recovery struct {
	// SegmentEpoch and SegmentPath identify the checkpoint the store
	// resumed from (epoch 0 and an empty path for a fresh directory).
	SegmentEpoch uint64
	SegmentPath  string
	// CorruptSegments lists segment files that failed validation and
	// were skipped (newest-first order of discovery). Each is renamed
	// aside, to its name plus ".corrupt", so that a later checkpoint
	// neither meets its name nor counts it among those retained.
	CorruptSegments []string
	// ReplayedBatches are the committed batches the WAL tail replayed,
	// in commit order.
	ReplayedBatches [][]Op
	// ReplayedOps and ReplayedExtensions count the replayed work.
	ReplayedOps        int64
	ReplayedExtensions int64
	// TruncatedRecords counts torn or corrupt WAL frames dropped from
	// the tail (also surfaced as bcq_wal_truncated_records_total).
	TruncatedRecords int64
	// SkippedRecords counts records already folded into the checkpoint
	// (their epoch ≤ the segment's) — leftovers of a crash between
	// checkpoint publication and WAL truncation.
	SkippedRecords int64
	// GapRecords counts records dropped because their epoch left a
	// continuity gap with the recovered base — the conservative stop
	// when the newest checkpoint was lost and replay would otherwise
	// apply post-checkpoint records onto an older base. Recovery cuts
	// them from the log before it takes appends again, so they are
	// counted by the one Open that dropped them.
	GapRecords int64
}

// Open recovers a durable store from dir: it loads the newest valid
// checkpoint segment (Recover) and replays the WAL tail through the
// normal admission path, so the recovered store is byte-identical to one
// that committed the same prefix and never crashed.
//
// The access schema recovered from the segment (plus any extensions the
// WAL replays) becomes the store's schema. Constraints in acc that the
// recovered schema lacks are then applied as fresh extensions — so a
// caller whose DDL widened between runs converges; acc may be nil to
// recover exactly what was stored. On a directory with no store state,
// Open creates a fresh durable store over an empty base (acc required).
//
// opts.Mode must match the mode the directory was written under for
// replay to be deterministic; opts.Dir and opts.Log are ignored (dir
// wins, and the store owns its log).
func Open(dir string, cat *schema.Catalog, acc *schema.AccessSchema, opts Options) (*Store, *Recovery, error) {
	if cat == nil {
		return nil, nil, fmt.Errorf("live: Open requires a catalog")
	}
	if len(segment.List(dir)) == 0 {
		if acc == nil {
			return nil, nil, fmt.Errorf("live: %s holds no store state and no access schema was provided", dir)
		}
		// Fresh directory: behave exactly like New with Options.Dir.
		st, err := New(storage.NewDatabase(cat), acc, Options{Mode: opts.Mode, Dir: dir})
		if err != nil {
			return nil, nil, err
		}
		return st, &Recovery{}, nil
	}
	st, rec, err := Recover(dir, cat, Options{Mode: opts.Mode})
	if err != nil {
		return nil, nil, err
	}

	// Replay the WAL tail with the log detached (st.w nil), so replayed
	// batches go through Apply without being re-logged.
	w, records, err := wal.Open(filepath.Join(dir, walFileName))
	if err != nil {
		return nil, nil, err
	}
	rec.TruncatedRecords = w.Stats().TruncatedRecords
	expect := rec.SegmentEpoch
	for i, r := range records {
		if r.Epoch <= expect {
			rec.SkippedRecords++
			continue
		}
		if r.Epoch != expect+1 {
			rec.GapRecords = int64(len(records) - i)
			if err := w.Cut(i); err != nil {
				w.Close()
				return nil, nil, fmt.Errorf("live: cutting the log at the gap: %w", err)
			}
			break
		}
		switch r.Kind {
		case wal.RecBatch:
			epoch, err := st.Apply(r.Ops)
			if err != nil {
				w.Close()
				return nil, nil, fmt.Errorf("live: replaying wal record %d (epoch %d): %w", i, r.Epoch, err)
			}
			if epoch != r.Epoch {
				w.Close()
				return nil, nil, fmt.Errorf("live: replay drift: wal record %d published epoch %d, logged %d", i, epoch, r.Epoch)
			}
			rec.ReplayedBatches = append(rec.ReplayedBatches, r.Ops)
			rec.ReplayedOps += int64(len(r.Ops))
		case wal.RecExtension:
			ac, err := schema.NewAccessConstraint(r.Rel, r.X, r.Y, r.N)
			if err != nil {
				w.Close()
				return nil, nil, fmt.Errorf("live: replaying wal extension record %d: %w", i, err)
			}
			if err := st.ExtendAccess(ac); err != nil {
				w.Close()
				return nil, nil, fmt.Errorf("live: replaying wal extension record %d: %w", i, err)
			}
			rec.ReplayedExtensions++
		default:
			w.Close()
			return nil, nil, fmt.Errorf("live: wal record %d has unknown kind %d", i, r.Kind)
		}
		expect = r.Epoch
	}

	// Attach the log: from here on, commits append again — after the
	// records replayed, never behind ones a gap left unreplayed. Caller-schema
	// constraints the recovered schema lacks are applied as ordinary
	// (logged) extensions.
	st.w = w
	if acc != nil {
		have := make(map[string]bool, st.Access().Size())
		for _, ac := range st.Access().Constraints() {
			have[ac.Key()] = true
		}
		for _, ac := range acc.Constraints() {
			if have[ac.Key()] {
				continue
			}
			if err := st.ExtendAccess(ac); err != nil {
				st.w.Close()
				return nil, nil, fmt.Errorf("live: extending recovered store with %s: %w", ac, err)
			}
		}
	}
	return st, rec, nil
}

// Recover loads the newest valid checkpoint segment of dir (falling back
// to an older retained one when the newest fails validation) and returns
// the store it holds, at the segment's epoch, with opts.Log as its log
// (see Options.Log) or none. It reads no log: Open replays the store's
// own, and a sharded store's Open replays its one log over the stores
// Recover gave each shard. A directory without a loadable segment is an
// error.
func Recover(dir string, cat *schema.Catalog, opts Options) (*Store, *Recovery, error) {
	rec := &Recovery{}
	var (
		base      *storage.Database
		segAcc    *schema.AccessSchema
		baseEpoch uint64
	)
	for _, s := range segment.List(dir) {
		db, a, epoch, err := segment.Load(s.Path, cat)
		if err != nil {
			rec.CorruptSegments = append(rec.CorruptSegments, s.Path)
			continue
		}
		base, segAcc, baseEpoch = db, a, epoch
		rec.SegmentPath = s.Path
		break
	}
	if base == nil {
		// State may exist, but none of it validates: refuse to guess.
		return nil, nil, fmt.Errorf("live: %s holds no loadable segment (%d corrupt: %v)",
			dir, len(rec.CorruptSegments), rec.CorruptSegments)
	}
	// The store resumes below the epochs of the corrupt segments, and its
	// later checkpoints may reach them: move them out of the way. Had they
	// stayed, Prune would keep them as the retained fallback.
	for _, p := range rec.CorruptSegments {
		if err := os.Rename(p, p+corruptSuffix); err != nil {
			return nil, nil, fmt.Errorf("live: moving corrupt segment aside: %w", err)
		}
	}
	rec.SegmentEpoch = baseEpoch
	st, err := newStore(base, segAcc, Options{Mode: opts.Mode}, baseEpoch)
	if err != nil {
		return nil, nil, err
	}
	st.dir = dir
	st.w, st.sharedLog = opts.Log, opts.Log != nil
	st.segEpoch.Store(baseEpoch)
	return st, rec, nil
}

// initDurable turns a freshly built in-memory store durable: it refuses
// directories that already hold store state, writes the base as the
// epoch-0 checkpoint segment, and opens the WAL — or takes the sharded
// store's log, when one is given (Options.Log).
func (st *Store) initDurable(dir string, acc *schema.AccessSchema, log *wal.WAL) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if len(segment.List(dir)) > 0 {
		return fmt.Errorf("live: %s already holds store state; recover it with Open", dir)
	}
	if _, err := os.Stat(filepath.Join(dir, walFileName)); err == nil {
		return fmt.Errorf("live: %s already holds a write-ahead log; recover it with Open", dir)
	}
	info, err := segment.Write(dir, st.Base(), acc, 0)
	if err != nil {
		return fmt.Errorf("live: writing initial checkpoint: %w", err)
	}
	w, sharedLog := log, log != nil
	if !sharedLog {
		if w, _, err = wal.Open(filepath.Join(dir, walFileName)); err != nil {
			return err
		}
	}
	st.dir = dir
	st.w, st.sharedLog = w, sharedLog
	st.segEpoch.Store(0)
	st.segBytes.Store(info.Bytes)
	st.segWrites.Add(1)
	return nil
}

// Close checkpoints and closes a durable store; on an in-memory store,
// and on a shard of a sharded store (whose owner checkpoints and closes
// the log), it is a no-op. The checkpoint runs only when the WAL holds
// records, so a clean shutdown followed by Open replays zero records.
// Safe to call more than once.
func (st *Store) Close() error {
	if st.w == nil || st.sharedLog {
		return nil
	}
	if st.w.HasRecords() {
		if _, err := st.Compact(); err != nil {
			st.w.Close()
			return err
		}
	}
	return st.w.Close()
}

// Dir returns the store's durable directory ("" for in-memory stores).
func (st *Store) Dir() string { return st.dir }

// WAL exposes the store's write-ahead log (nil for in-memory stores; a
// shard's is its sharded store's one log): metric bridges read its
// counters and crash tests arm its fail points.
func (st *Store) WAL() *wal.WAL { return st.w }

// SegmentEpoch returns the epoch of the newest checkpoint segment (0
// before any checkpoint).
func (st *Store) SegmentEpoch() uint64 { return st.segEpoch.Load() }
