package live_test

// The durable single store is a sharded store at P = 1, whose shard is a
// live store: these tests build it through shard.New and shard.Open and
// hold its shard — data, cards and ledger — to an in-memory live store
// that applied the same committed prefix and never crashed.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/segment"
	"bcq/internal/shard"
	"bcq/internal/wal"
)

var strs = live.Strs

func socialBatches() [][]live.Op {
	return [][]live.Op{
		{live.Insert("in_album", strs("p9", "a2")), live.Insert("friends", strs("u3", "f1"))},
		{live.Insert("in_album", strs("p8", "a2")), live.Delete("friends", strs("u0", "f2"))},
		{live.Delete("in_album", strs("p1", "a0")), live.Insert("tagging", strs("p9", "f1", "u3"))},
		{live.Insert("in_album", strs("p7", "a0"))},
	}
}

// wider is a constraint the social schema lacks. Its X lacks friends'
// shard key (user_id), which a one-shard store takes all the same.
var wider = schema.MustAccessConstraint("friends", []string{"friend_id"}, []string{"user_id"}, 100)

// newDurable seeds a durable one-shard store of the social scene in dir.
func newDurable(t *testing.T, dir string) *shard.Store {
	t.Helper()
	ss, err := shard.New(live.LoadSocial(t), live.AccessA0(), shard.Options{Shards: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// reopen recovers the store in dir with the given caller schema.
func reopen(t *testing.T, dir string, acc *schema.AccessSchema) (*shard.Store, *shard.Recovery) {
	t.Helper()
	re, rec, err := shard.Open(dir, live.SocialCatalog(), acc, shard.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if re.NumShards() != 1 {
		t.Fatalf("reopened %d shards, want 1", re.NumShards())
	}
	return re, rec
}

// applyRef builds the in-memory reference store that applied the first n
// batches.
func applyRef(t *testing.T, n int) *live.Store {
	t.Helper()
	ref, err := live.New(live.LoadSocial(t), live.AccessA0(), live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range socialBatches()[:n] {
		if _, err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// applyAll applies batches to a durable store.
func applyAll(t *testing.T, ss *shard.Store, batches [][]live.Op) {
	t.Helper()
	for _, b := range batches {
		if err := ss.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDurableCleanShutdownReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	ss := newDurable(t, dir)
	batches := socialBatches()
	applyAll(t, ss, batches)
	if !ss.WAL().HasRecords() {
		t.Fatal("WAL empty after applies")
	}
	if err := ss.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ss.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	re, rec := reopen(t, dir, live.AccessA0())
	defer re.Close()
	if rec.ReplayedOps != 0 || rec.ReplayedBatches != 0 || rec.ReplayedExtensions != 0 {
		t.Fatalf("clean shutdown replayed work: %+v", rec)
	}
	if re.Shard(0).SegmentEpoch() == 0 {
		t.Fatal("Close did not checkpoint")
	}
	// Close checkpointed, which publishes an epoch exactly like an
	// in-memory Compact does — mirror it in the reference.
	ref := applyRef(t, len(batches))
	if _, err := ref.Compact(); err != nil {
		t.Fatal(err)
	}
	live.AssertSameState(t, re.Shard(0), ref)
}

func TestDurableCrashReplaysTail(t *testing.T) {
	dir := t.TempDir()
	ss := newDurable(t, dir)
	batches := socialBatches()
	applyAll(t, ss, batches)
	// Abandon without Close: the crash case. Reopen must replay every
	// batch from the WAL.
	re, rec := reopen(t, dir, live.AccessA0())
	defer re.Close()
	if rec.ReplayedBatches != int64(len(batches)) {
		t.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, len(batches))
	}
	live.AssertSameState(t, re.Shard(0), applyRef(t, len(batches)))
}

func TestDurableCompactCheckpointsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	ss := newDurable(t, dir)
	batches := socialBatches()
	applyAll(t, ss, batches[:2])
	if err := ss.Compact(); err != nil {
		t.Fatal(err)
	}
	epoch := ss.Shard(0).Epoch()
	if ss.Shard(0).SegmentEpoch() != epoch {
		t.Fatalf("SegmentEpoch = %d, want %d", ss.Shard(0).SegmentEpoch(), epoch)
	}
	if ss.WAL().HasRecords() {
		t.Fatal("WAL not truncated by checkpoint")
	}
	applyAll(t, ss, batches[2:])
	// Crash: reopen must resume from the checkpoint and replay only the
	// post-checkpoint tail.
	re, rec := reopen(t, dir, live.AccessA0())
	defer re.Close()
	if got := re.Shard(0).SegmentEpoch(); got != epoch {
		t.Fatalf("recovered from segment epoch %d, want %d", got, epoch)
	}
	if rec.ReplayedBatches != int64(len(batches)-2) {
		t.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, len(batches)-2)
	}
	ref := applyRef(t, 2)
	if _, err := ref.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[2:] {
		if _, err := ref.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	live.AssertSameState(t, re.Shard(0), ref)
}

func TestDurableExtensionSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	ss := newDurable(t, dir)
	if err := ss.ExtendAccess(wider); err != nil {
		t.Fatal(err)
	}
	applyAll(t, ss, socialBatches()[:1])
	re, rec := reopen(t, dir, live.AccessA0())
	defer re.Close()
	if rec.ReplayedExtensions != 1 {
		t.Fatalf("replayed %d extensions, want 1", rec.ReplayedExtensions)
	}
	ref := applyRef(t, 0)
	if err := ref.ExtendAccess(wider); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(socialBatches()[0]); err != nil {
		t.Fatal(err)
	}
	live.AssertSameState(t, re.Shard(0), ref)
}

func TestDurableOpenWidensWithCallerSchema(t *testing.T) {
	dir := t.TempDir()
	if err := newDurable(t, dir).Close(); err != nil {
		t.Fatal(err)
	}
	// The caller's DDL widened between runs: Open converges the
	// recovered store to the wider schema, durably.
	wide := schema.MustAccessSchema(append(live.AccessA0().Constraints(), wider)...)
	re, _ := reopen(t, dir, wide)
	if re.Access().Size() != wide.Size() {
		t.Fatalf("recovered schema has %d constraints, want %d", re.Access().Size(), wide.Size())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, rec := reopen(t, dir, wide)
	defer re2.Close()
	if re2.Access().Size() != wide.Size() {
		t.Fatal("widening did not survive the second reopen")
	}
	if rec.ReplayedExtensions != 0 {
		t.Fatal("widening was not checkpointed by Close")
	}
}

// TestNewRefusesExistingState: a directory that holds a store is not
// seeded again, neither as a sharded store nor as one of its shards.
func TestNewRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	newDurable(t, dir).Close()
	if _, err := shard.New(live.LoadSocial(t), live.AccessA0(), shard.Options{Shards: 1, Dir: dir}); err == nil {
		t.Fatal("shard.New accepted a directory that already holds store state")
	}
	w, _, err := wal.Open(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := live.NewShard(live.LoadSocial(t), live.AccessA0(), filepath.Join(dir, "shard-000"), w); err == nil {
		t.Fatal("live.NewShard accepted a directory that already holds a segment")
	}
}

// TestCorruptNewestSegmentFallsBack flips a byte in the newest segment's
// footer region: Open must fall back to the retained previous segment
// and stop WAL replay at the continuity gap instead of erroring or
// loading garbage.
func TestCorruptNewestSegmentFallsBack(t *testing.T) {
	dir := t.TempDir()
	ss := newDurable(t, dir)
	batches := socialBatches()
	applyAll(t, ss, batches[:1])
	if err := ss.Compact(); err != nil { // segment epoch 2, keeps epoch 0
		t.Fatal(err)
	}
	applyAll(t, ss, batches[1:2])
	ss.WAL().Close() // simulate crash

	sdir := filepath.Join(dir, "shard-000")
	segs := segment.List(sdir)
	if len(segs) != 2 {
		t.Fatalf("%d segments on disk, want 2", len(segs))
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-4] ^= 0xff // corrupt the footer magic
	if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, rec := reopen(t, dir, live.AccessA0())
	defer re.Close()
	if len(rec.CorruptSegments) != 1 {
		t.Fatalf("CorruptSegments = %v", rec.CorruptSegments)
	}
	if got := re.Shard(0).SegmentEpoch(); got != 0 {
		t.Fatalf("fell back to segment epoch %d, want 0", got)
	}
	// The WAL was truncated at the lost checkpoint, so its records
	// (epoch 3+) gap against base epoch 0 and must be dropped, leaving
	// the state of the retained checkpoint.
	if rec.GapRecords == 0 {
		t.Fatal("post-lost-checkpoint records were not gap-dropped")
	}
	live.AssertSameState(t, re.Shard(0), applyRef(t, 0))
}

// TestLostCheckpointKeepsLaterWrites: the newest checkpoint is lost —
// its segment removed, or corrupted — so Open resumes from the one before
// and drops the log's records from the first that leaves a gap. Open
// cuts them from the log, so every batch acknowledged after it survives
// the next crash and a second Open drops nothing. The later checkpoints,
// one below the lost epoch and one at it, are what later Opens resume
// from: neither meets the corrupt file nor is hidden by it.
func TestLostCheckpointKeepsLaterWrites(t *testing.T) {
	for _, loss := range []string{"removed", "corrupt"} {
		t.Run(loss, func(t *testing.T) {
			dir := t.TempDir()
			sdir := filepath.Join(dir, "shard-000")
			ss := newDurable(t, dir)
			n := 0
			writeUntil := func(ss *shard.Store, e uint64) {
				t.Helper()
				for ss.Shard(0).Epoch() < e {
					n++
					if err := ss.Insert("friends", strs(fmt.Sprintf("w%d", n), "f0")); err != nil {
						t.Fatal(err)
					}
				}
			}
			writeUntil(ss, 5)
			if err := ss.Compact(); err != nil {
				t.Fatal(err)
			}
			lost := ss.Shard(0).Epoch()
			writeUntil(ss, lost+2)
			ss.WAL().Close() // crash
			segs := segment.List(sdir)
			if len(segs) != 2 || segs[0].Epoch != lost {
				t.Fatalf("segments %+v, want two, the newest at epoch %d", segs, lost)
			}
			if loss == "removed" {
				if err := os.Remove(segs[0].Path); err != nil {
					t.Fatal(err)
				}
			} else {
				data, err := os.ReadFile(segs[0].Path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(segs[0].Path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			re, rec := reopen(t, dir, live.AccessA0())
			if rec.GapRecords != 2 || re.Shard(0).Epoch() != 0 || re.WAL().HasRecords() {
				t.Fatalf("first Open: epoch %d, %d gap records, records left in the log %v; want epoch 0, 2 and none",
					re.Shard(0).Epoch(), rec.GapRecords, re.WAL().HasRecords())
			}
			writeUntil(re, 2)
			re.WAL().Close() // crash
			re2, rec2 := reopen(t, dir, live.AccessA0())
			if rec2.GapRecords != 0 || len(rec2.CorruptSegments) != 0 || rec2.ReplayedBatches != 2 {
				t.Fatalf("second Open: %d gap records, corrupt segments %v, %d batches replayed; want 0, none and 2",
					rec2.GapRecords, rec2.CorruptSegments, rec2.ReplayedBatches)
			}
			live.AssertSameState(t, re2.Shard(0), re.Shard(0))

			if err := re2.Compact(); err != nil { // epoch 3, below the lost one
				t.Fatal(err)
			}
			if segs := segment.List(sdir); len(segs) != 2 || segs[0].Epoch != 3 || segs[1].Epoch != 0 {
				t.Fatalf("segments %+v retained, want those of epochs 3 and 0", segs)
			}
			writeUntil(re2, lost-1)
			if err := re2.Compact(); err != nil { // the lost checkpoint's name
				t.Fatal(err)
			}
			if e := re2.Shard(0).SegmentEpoch(); e != lost {
				t.Fatalf("checkpoint at epoch %d, want %d", e, lost)
			}
			writeUntil(re2, lost+2)
			re2.WAL().Close() // crash
			re3, rec3 := reopen(t, dir, live.AccessA0())
			defer re3.Close()
			if got := re3.Shard(0).SegmentEpoch(); rec3.GapRecords != 0 || len(rec3.CorruptSegments) != 0 || got != lost {
				t.Fatalf("third Open: %d gap records, corrupt segments %v, resumed from epoch %d; want 0, none and %d",
					rec3.GapRecords, rec3.CorruptSegments, got, lost)
			}
			live.AssertSameState(t, re3.Shard(0), re2.Shard(0))
		})
	}
}

// TestTornWALTailRecoversPrefix injects a torn append and asserts
// recovery lands exactly on the committed prefix, counting the
// truncation.
func TestTornWALTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	ss := newDurable(t, dir)
	batches := socialBatches()
	applyAll(t, ss, batches[:1])
	ss.WAL().SetFailPoint(1, 7)
	if err := ss.Apply(batches[1]); !errors.Is(err, wal.ErrInjectedCrash) {
		t.Fatalf("Apply = %v, want injected crash", err)
	}
	ss.WAL().Close()

	re, rec := reopen(t, dir, live.AccessA0())
	defer re.Close()
	if rec.TruncatedRecords == 0 {
		t.Fatal("torn frame not counted")
	}
	if rec.ReplayedBatches != 1 {
		t.Fatalf("replayed %d batches, want 1", rec.ReplayedBatches)
	}
	live.AssertSameState(t, re.Shard(0), applyRef(t, 1))
}

// TestInMemoryUnchanged: an empty-Dir store has no durability state and
// takes writes directly, which a durable store's shard refuses.
func TestInMemoryUnchanged(t *testing.T) {
	st, err := live.New(live.LoadSocial(t), live.AccessA0(), live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL() != nil || st.Dir() != "" {
		t.Fatal("in-memory store grew durability state")
	}
	if _, err := st.Apply(socialBatches()[0]); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := st.ExtendAccess(wider); err != nil {
		t.Fatalf("ExtendAccess: %v", err)
	}
	ss := newDurable(t, t.TempDir())
	defer ss.Close()
	if _, err := ss.Shard(0).Apply(socialBatches()[0]); err == nil {
		t.Fatal("a durable store's shard took an Apply its store did not log")
	}
	if err := ss.Shard(0).ExtendAccess(wider); err == nil {
		t.Fatal("a durable store's shard took an extension its store did not log")
	}
}

func TestOpenFreshDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	ss, rec, err := shard.Open(dir, live.SocialCatalog(), live.AccessA0(), shard.Options{Shards: 1})
	if err != nil {
		t.Fatalf("Open on fresh dir: %v", err)
	}
	if !rec.Fresh || rec.ReplayedOps != 0 {
		t.Fatalf("fresh open recovery = %+v", rec)
	}
	applyAll(t, ss, socialBatches()[:1])
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	re, _ := reopen(t, dir, live.AccessA0())
	defer re.Close()
	if re.NumTuples() == 0 {
		t.Fatal("fresh durable store lost its data")
	}
}

// dupBatches is a batch history thick with duplicates: pairs that gain
// second and third occurrences, lose their witness, fall back to one and
// to none, within and across batches.
func dupBatches() [][]live.Op {
	return [][]live.Op{
		{live.Insert("friends", strs("u0", "f1")), live.Insert("friends", strs("u0", "f1")), live.Insert("in_album", strs("p3", "a1"))},
		{live.Delete("friends", strs("u0", "f1")), live.Insert("tagging", strs("p1", "f1", "u0"))},
		{live.Delete("in_album", strs("p3", "a1")), live.Insert("friends", strs("u9", "f9")), live.Insert("friends", strs("u9", "f9")), live.Delete("friends", strs("u9", "f9"))},
		{live.Delete("friends", strs("u0", "f1")), live.Delete("friends", strs("u0", "f1")), live.Delete("tagging", strs("p1", "f1", "u0"))},
		{live.Insert("friends", strs("u0", "f1")), live.Insert("in_album", strs("p3", "a1")), live.Insert("in_album", strs("p3", "a1"))},
	}
}

// TestDurableKillPointSweepKeepsLedger crashes the store at every append
// of the duplicate-heavy history, with the frame torn at several lengths,
// and holds the recovered store — data, cards and ledger — to the
// in-memory store that applied the same committed prefix and never
// crashed. One sweep checkpoints mid-history so recovery also runs
// segment-then-tail; another checkpoints the shard but never resets the
// log — a crash between the two — so recovery also skips, by epoch, the
// records the checkpoint already holds.
func TestDurableKillPointSweepKeepsLedger(t *testing.T) {
	batches := dupBatches()
	const compactAfter = 2
	for _, mode := range []string{"no checkpoint", "checkpoint", "log not reset"} {
		for kill := 1; kill <= len(batches); kill++ {
			for _, torn := range []int{0, 5, 13} {
				dir := t.TempDir()
				ss := newDurable(t, dir)
				ref, err := live.New(live.LoadSocial(t), live.AccessA0(), live.Options{})
				if err != nil {
					t.Fatal(err)
				}
				ss.WAL().SetFailPoint(kill, torn)
				for i, b := range batches {
					if err := ss.Apply(b); err != nil {
						if i != kill-1 || !errors.Is(err, wal.ErrInjectedCrash) {
							t.Fatalf("%s, kill %d: batch %d: %v", mode, kill, i, err)
						}
						break
					}
					if _, err := ref.Apply(b); err != nil {
						t.Fatal(err)
					}
					if i+1 == compactAfter && mode != "no checkpoint" {
						var err error
						if mode == "checkpoint" {
							err = ss.Compact()
						} else {
							_, err = ss.Shard(0).Compact()
						}
						if err != nil {
							t.Fatal(err)
						}
						if _, err := ref.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
				ss.WAL().Close()
				re, rec, err := shard.Open(dir, live.SocialCatalog(), live.AccessA0(), shard.Options{})
				if err != nil {
					t.Fatalf("%s, kill %d torn %d: Open: %v", mode, kill, torn, err)
				}
				if rec.GapRecords != 0 {
					t.Fatalf("%s, kill %d torn %d: %d records dropped at a gap", mode, kill, torn, rec.GapRecords)
				}
				live.AssertSameState(t, re.Shard(0), ref)
				re.WAL().Close()
			}
		}
	}
}

// flakyFile makes the WAL's Write return an error after putting down a
// partial frame — a disk that fails and a process that lives on.
type flakyFile struct {
	wal.File
	writeErr error
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.writeErr == nil {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:9])
	return n, f.writeErr
}

// TestReturnedWALErrorPoisonsTheStore injects an I/O error the WAL
// returns (SetFailPoint models a crash; here the process survives). The
// failed batch must publish nothing and leave no trace; the next Apply
// must be refused with the same error even though the disk has
// recovered; the failed append must have rewound its partial frame, so
// recovery has nothing to cut; and reopening must bring back every
// acknowledged batch and nothing else.
func TestReturnedWALErrorPoisonsTheStore(t *testing.T) {
	dir := t.TempDir()
	ss := newDurable(t, dir)
	batches := socialBatches()
	applyAll(t, ss, batches[:1])
	var ff *flakyFile
	ss.WAL().WrapFile(func(f wal.File) wal.File { ff = &flakyFile{File: f}; return ff })
	diskFull := errors.New("no space left on device")
	ff.writeErr = diskFull

	before := ss.Shard(0).Snapshot()
	if err := ss.Apply(batches[1]); !errors.Is(err, diskFull) {
		t.Fatalf("Apply over a failing disk = %v, want the injected error", err)
	}
	ff.writeErr = nil
	if err := ss.Apply(batches[2]); !errors.Is(err, diskFull) {
		t.Fatalf("Apply after a failed append = %v, want it refused with the same error", err)
	}
	if ss.Shard(0).Snapshot() != before {
		t.Fatal("a batch whose append failed published an epoch")
	}
	live.CheckLedger(t, ss.Shard(0), "after failed appends")
	ss.WAL().Close()

	re, rec := reopen(t, dir, live.AccessA0())
	defer re.Close()
	if rec.ReplayedBatches != 1 || rec.TruncatedRecords != 0 {
		t.Fatalf("recovery replayed %d batches and cut %d frames, want 1 and 0", rec.ReplayedBatches, rec.TruncatedRecords)
	}
	live.AssertSameState(t, re.Shard(0), applyRef(t, 1))
	if err := re.Apply(batches[1]); err != nil {
		t.Fatalf("Apply on the reopened store: %v", err)
	}
}
