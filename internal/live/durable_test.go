package live

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/segment"
	"bcq/internal/value"
	"bcq/internal/wal"
)

// assertSameState asserts two stores expose identical data: per-relation
// tuples in live order, cardinality statistics, epoch key and tuple
// count. It is the byte-identity bar of the crash-recovery property. The
// writer's bookkeeping is held to the same bar: each store's ledger
// equals a recount of its own snapshot, and the recovered store's equals
// the never-crashed one's, position for position.
func assertSameState(t *testing.T, got, want *Store) {
	t.Helper()
	checkLedger(t, got, "recovered store")
	checkLedger(t, want, "reference store")
	for key, led := range want.ledger {
		if !sameLedger(got.ledger[key], led) {
			t.Fatalf("ledger of %s differs:\n got %v\nwant %v", key, got.ledger[key], led)
		}
	}
	if gk, wk := got.EpochKey(), want.EpochKey(); gk != wk {
		t.Fatalf("EpochKey = %s, want %s", gk, wk)
	}
	if gn, wn := got.NumTuples(), want.NumTuples(); gn != wn {
		t.Fatalf("NumTuples = %d, want %d", gn, wn)
	}
	if !reflect.DeepEqual(got.CardStats(), want.CardStats()) {
		t.Fatalf("CardStats differ:\n got %+v\nwant %+v", got.CardStats(), want.CardStats())
	}
	if gs, ws := got.Access().String(), want.Access().String(); gs != ws {
		t.Fatalf("Access = %s, want %s", gs, ws)
	}
	gSnap, wSnap := got.Snapshot(), want.Snapshot()
	for _, rs := range want.Catalog().Relations() {
		var gt, wt []value.Tuple
		if err := gSnap.Scan(rs.Name(), func(pos int, tu value.Tuple) bool {
			gt = append(gt, tu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := wSnap.Scan(rs.Name(), func(pos int, tu value.Tuple) bool {
			wt = append(wt, tu)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(gt) != len(wt) {
			t.Fatalf("%s: %d live tuples, want %d", rs.Name(), len(gt), len(wt))
		}
		for i := range wt {
			if !gt[i].Equal(wt[i]) {
				t.Fatalf("%s[%d] = %s, want %s", rs.Name(), i, gt[i], wt[i])
			}
		}
	}
}

func socialBatches() [][]Op {
	return [][]Op{
		{Insert("in_album", strs("p9", "a2")), Insert("friends", strs("u3", "f1"))},
		{Insert("in_album", strs("p8", "a2")), Delete("friends", strs("u0", "f2"))},
		{Delete("in_album", strs("p1", "a0")), Insert("tagging", strs("p9", "f1", "u3"))},
		{Insert("in_album", strs("p7", "a0"))},
	}
}

// applyRef builds the in-memory reference store that applied the first n
// batches.
func applyRef(t *testing.T, n int) *Store {
	t.Helper()
	ref, err := New(loadSocial(t), accessA0(), Options{})
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

func TestDurableCleanShutdownReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := socialBatches()
	for _, b := range batches {
		if _, err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if !st.WAL().HasRecords() {
		t.Fatal("WAL empty after applies")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	re, rec, err := Open(dir, socialCatalog(), accessA0(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if rec.ReplayedOps != 0 || len(rec.ReplayedBatches) != 0 || rec.ReplayedExtensions != 0 {
		t.Fatalf("clean shutdown replayed work: %+v", rec)
	}
	if rec.SegmentEpoch == 0 {
		t.Fatal("Close did not checkpoint")
	}
	// Close checkpointed, which publishes an epoch exactly like an
	// in-memory Compact does — mirror it in the reference.
	ref := applyRef(t, len(batches))
	if _, err := ref.Compact(); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, re, ref)
}

func TestDurableCrashReplaysTail(t *testing.T) {
	dir := t.TempDir()
	st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := socialBatches()
	for _, b := range batches {
		if _, err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon without Close: the crash case. Reopen must replay every
	// batch from the WAL.
	re, rec, err := Open(dir, socialCatalog(), accessA0(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer re.Close()
	if len(rec.ReplayedBatches) != len(batches) {
		t.Fatalf("replayed %d batches, want %d", len(rec.ReplayedBatches), len(batches))
	}
	assertSameState(t, re, applyRef(t, len(batches)))
}

func TestDurableCompactCheckpointsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := socialBatches()
	for _, b := range batches[:2] {
		if _, err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	epoch, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentEpoch() != epoch {
		t.Fatalf("SegmentEpoch = %d, want %d", st.SegmentEpoch(), epoch)
	}
	if st.WAL().HasRecords() {
		t.Fatal("WAL not truncated by checkpoint")
	}
	for _, b := range batches[2:] {
		if _, err := st.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: reopen must resume from the checkpoint and replay only the
	// post-checkpoint tail.
	re, rec, err := Open(dir, socialCatalog(), accessA0(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec.SegmentEpoch != epoch {
		t.Fatalf("recovered from segment epoch %d, want %d", rec.SegmentEpoch, epoch)
	}
	if len(rec.ReplayedBatches) != len(batches)-2 {
		t.Fatalf("replayed %d batches, want %d", len(rec.ReplayedBatches), len(batches)-2)
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
	assertSameState(t, re, ref)
}

func TestDurableExtensionSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ext := schema.MustAccessConstraint("friends", []string{"friend_id"}, []string{"user_id"}, 100)
	if err := st.ExtendAccess(ext); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Apply(socialBatches()[0]); err != nil {
		t.Fatal(err)
	}
	re, rec, err := Open(dir, socialCatalog(), accessA0(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec.ReplayedExtensions != 1 {
		t.Fatalf("replayed %d extensions, want 1", rec.ReplayedExtensions)
	}
	ref := applyRef(t, 0)
	if err := ref.ExtendAccess(ext); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Apply(socialBatches()[0]); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, re, ref)
}

func TestDurableOpenWidensWithCallerSchema(t *testing.T) {
	dir := t.TempDir()
	st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The caller's DDL widened between runs: Open converges the
	// recovered store to the wider schema, durably.
	wide := schema.MustAccessSchema(append(accessA0().Constraints(),
		schema.MustAccessConstraint("friends", []string{"friend_id"}, []string{"user_id"}, 100))...)
	re, _, err := Open(dir, socialCatalog(), wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Access().Size() != wide.Size() {
		t.Fatalf("recovered schema has %d constraints, want %d", re.Access().Size(), wide.Size())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, rec, err := Open(dir, socialCatalog(), wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Access().Size() != wide.Size() {
		t.Fatal("widening did not survive the second reopen")
	}
	if rec.ReplayedExtensions != 0 {
		t.Fatal("widening was not checkpointed by Close")
	}
}

func TestNewRefusesExistingState(t *testing.T) {
	dir := t.TempDir()
	st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := New(loadSocial(t), accessA0(), Options{Dir: dir}); err == nil {
		t.Fatal("New accepted a directory that already holds store state")
	}
}

// TestCorruptNewestSegmentFallsBack flips a byte in the newest segment's
// footer region: Open must fall back to the retained previous segment
// and stop WAL replay at the continuity gap instead of erroring or
// loading garbage.
func TestCorruptNewestSegmentFallsBack(t *testing.T) {
	dir := t.TempDir()
	st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := socialBatches()
	if _, err := st.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(); err != nil { // segment epoch 2, keeps epoch 0
		t.Fatal(err)
	}
	if _, err := st.Apply(batches[1]); err != nil {
		t.Fatal(err)
	}
	st.WAL().Close() // simulate crash

	segs := segment.List(dir)
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

	re, rec, err := Open(dir, socialCatalog(), accessA0(), Options{})
	if err != nil {
		t.Fatalf("Open with corrupt newest segment: %v", err)
	}
	defer re.Close()
	if len(rec.CorruptSegments) != 1 {
		t.Fatalf("CorruptSegments = %v", rec.CorruptSegments)
	}
	if rec.SegmentEpoch != 0 {
		t.Fatalf("fell back to segment epoch %d, want 0", rec.SegmentEpoch)
	}
	// The WAL was truncated at the lost checkpoint, so its records
	// (epoch 3+) gap against base epoch 0 and must be dropped, leaving
	// the state of the retained checkpoint.
	if rec.GapRecords == 0 {
		t.Fatal("post-lost-checkpoint records were not gap-dropped")
	}
	assertSameState(t, re, applyRef(t, 0))
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
			st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			writeUntil := func(st *Store, e uint64) {
				t.Helper()
				for st.Epoch() < e {
					n++
					if err := st.Insert("friends", strs(fmt.Sprintf("w%d", n), "f0")); err != nil {
						t.Fatal(err)
					}
				}
			}
			writeUntil(st, 5)
			lost, err := st.Compact()
			if err != nil {
				t.Fatal(err)
			}
			writeUntil(st, lost+2)
			st.WAL().Close() // crash
			segs := segment.List(dir)
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

			re, rec, err := Open(dir, socialCatalog(), accessA0(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rec.GapRecords != 2 || re.Epoch() != 0 || re.WAL().HasRecords() {
				t.Fatalf("first Open: epoch %d, %d gap records, records left in the log %v; want epoch 0, 2 and none",
					re.Epoch(), rec.GapRecords, re.WAL().HasRecords())
			}
			writeUntil(re, 2)
			re.WAL().Close() // crash
			re2, rec2, err := Open(dir, socialCatalog(), accessA0(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if rec2.GapRecords != 0 || len(rec2.CorruptSegments) != 0 || len(rec2.ReplayedBatches) != 2 {
				t.Fatalf("second Open: %d gap records, corrupt segments %v, %d batches replayed; want 0, none and 2",
					rec2.GapRecords, rec2.CorruptSegments, len(rec2.ReplayedBatches))
			}
			assertSameState(t, re2, re)

			if _, err := re2.Compact(); err != nil { // epoch 3, below the lost one
				t.Fatal(err)
			}
			if segs := segment.List(dir); len(segs) != 2 || segs[0].Epoch != 3 || segs[1].Epoch != 0 {
				t.Fatalf("segments %+v retained, want those of epochs 3 and 0", segs)
			}
			writeUntil(re2, lost-1)
			if e, err := re2.Compact(); err != nil || e != lost { // the lost checkpoint's name
				t.Fatalf("checkpoint at epoch %d (%v), want %d", e, err, lost)
			}
			writeUntil(re2, lost+2)
			re2.WAL().Close() // crash
			re3, rec3, err := Open(dir, socialCatalog(), accessA0(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re3.Close()
			if rec3.GapRecords != 0 || len(rec3.CorruptSegments) != 0 || rec3.SegmentEpoch != lost {
				t.Fatalf("third Open: %d gap records, corrupt segments %v, resumed from epoch %d; want 0, none and %d",
					rec3.GapRecords, rec3.CorruptSegments, rec3.SegmentEpoch, lost)
			}
			assertSameState(t, re3, re2)
		})
	}
}

// TestTornWALTailRecoversPrefix injects a torn append and asserts
// recovery lands exactly on the committed prefix, counting the
// truncation.
func TestTornWALTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := socialBatches()
	if _, err := st.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	st.WAL().SetFailPoint(1, 7)
	if _, err := st.Apply(batches[1]); !errors.Is(err, wal.ErrInjectedCrash) {
		t.Fatalf("Apply = %v, want injected crash", err)
	}
	st.WAL().Close()

	re, rec, err := Open(dir, socialCatalog(), accessA0(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec.TruncatedRecords == 0 {
		t.Fatal("torn frame not counted")
	}
	if len(rec.ReplayedBatches) != 1 {
		t.Fatalf("replayed %d batches, want 1", len(rec.ReplayedBatches))
	}
	assertSameState(t, re, applyRef(t, 1))
}

// TestInMemoryUnchanged pins the refactor: an empty Dir store has no
// durability state and Close is a no-op.
func TestInMemoryUnchanged(t *testing.T) {
	st, err := New(loadSocial(t), accessA0(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.WAL() != nil || st.Dir() != "" {
		t.Fatal("in-memory store grew durability state")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("in-memory Close: %v", err)
	}
	if _, err := st.Apply(socialBatches()[0]); err != nil {
		t.Fatalf("Apply after no-op Close: %v", err)
	}
}

func TestOpenFreshDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	st, rec, err := Open(dir, socialCatalog(), accessA0(), Options{})
	if err != nil {
		t.Fatalf("Open on fresh dir: %v", err)
	}
	if rec.SegmentPath != "" || rec.ReplayedOps != 0 {
		t.Fatalf("fresh open recovery = %+v", rec)
	}
	if _, err := st.Apply(socialBatches()[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, _, err := Open(dir, socialCatalog(), accessA0(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.NumTuples() == 0 {
		t.Fatal("fresh durable store lost its data")
	}
}

// dupBatches is a batch history thick with duplicates: pairs that gain
// second and third occurrences, lose their witness, fall back to one and
// to none, within and across batches.
func dupBatches() [][]Op {
	return [][]Op{
		{Insert("friends", strs("u0", "f1")), Insert("friends", strs("u0", "f1")), Insert("in_album", strs("p3", "a1"))},
		{Delete("friends", strs("u0", "f1")), Insert("tagging", strs("p1", "f1", "u0"))},
		{Delete("in_album", strs("p3", "a1")), Insert("friends", strs("u9", "f9")), Insert("friends", strs("u9", "f9")), Delete("friends", strs("u9", "f9"))},
		{Delete("friends", strs("u0", "f1")), Delete("friends", strs("u0", "f1")), Delete("tagging", strs("p1", "f1", "u0"))},
		{Insert("friends", strs("u0", "f1")), Insert("in_album", strs("p3", "a1")), Insert("in_album", strs("p3", "a1"))},
	}
}

// TestDurableKillPointSweepKeepsLedger crashes the store at every append
// of the duplicate-heavy history, with the frame torn at several lengths,
// and holds the recovered store — data, cards and ledger — to the
// in-memory store that applied the same committed prefix and never
// crashed. One sweep checkpoints mid-history so recovery also runs
// segment-then-tail.
func TestDurableKillPointSweepKeepsLedger(t *testing.T) {
	batches := dupBatches()
	for _, compactAfter := range []int{-1, 2} {
		for kill := 1; kill <= len(batches); kill++ {
			for _, torn := range []int{0, 5, 13} {
				dir := t.TempDir()
				st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := New(loadSocial(t), accessA0(), Options{})
				if err != nil {
					t.Fatal(err)
				}
				st.WAL().SetFailPoint(kill, torn)
				for i, b := range batches {
					if _, err := st.Apply(b); err != nil {
						if i != kill-1 || !errors.Is(err, wal.ErrInjectedCrash) {
							t.Fatalf("kill %d: batch %d: %v", kill, i, err)
						}
						break
					}
					if _, err := ref.Apply(b); err != nil {
						t.Fatal(err)
					}
					if i+1 == compactAfter {
						if _, err := st.Compact(); err != nil {
							t.Fatal(err)
						}
						if _, err := ref.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
				st.WAL().Close()
				re, _, err := Open(dir, socialCatalog(), accessA0(), Options{})
				if err != nil {
					t.Fatalf("kill %d torn %d: Open: %v", kill, torn, err)
				}
				assertSameState(t, re, ref)
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
	st, err := New(loadSocial(t), accessA0(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	batches := socialBatches()
	if _, err := st.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	var ff *flakyFile
	st.WAL().WrapFile(func(f wal.File) wal.File { ff = &flakyFile{File: f}; return ff })
	diskFull := errors.New("no space left on device")
	ff.writeErr = diskFull

	before := st.Snapshot()
	if _, err := st.Apply(batches[1]); !errors.Is(err, diskFull) {
		t.Fatalf("Apply over a failing disk = %v, want the injected error", err)
	}
	ff.writeErr = nil
	if _, err := st.Apply(batches[2]); !errors.Is(err, diskFull) {
		t.Fatalf("Apply after a failed append = %v, want it refused with the same error", err)
	}
	if st.Snapshot() != before {
		t.Fatal("a batch whose append failed published an epoch")
	}
	checkLedger(t, st, "after failed appends")
	st.WAL().Close()

	re, rec, err := Open(dir, socialCatalog(), accessA0(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(rec.ReplayedBatches) != 1 || rec.TruncatedRecords != 0 {
		t.Fatalf("recovery replayed %d batches and cut %d frames, want 1 and 0", len(rec.ReplayedBatches), rec.TruncatedRecords)
	}
	assertSameState(t, re, applyRef(t, 1))
	if _, err := re.Apply(batches[1]); err != nil {
		t.Fatalf("Apply on the reopened store: %v", err)
	}
}
