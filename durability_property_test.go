// Crash-recovery property tests for the durable tier (CI runs them
// under -race). A durable store is a sharded one; P = 1 is the single
// store.
//
//  1. Committed-prefix identity: for ANY kill point — a fail point armed
//     on the n-th append to the store's one log leaves a torn, unfsynced
//     frame exactly the way power loss mid-write would — reopening the
//     directory yields a store byte-identical (tuples, epoch key,
//     cardinality statistics, access schema), shard by shard, to an
//     independent in-memory store that applied exactly the committed
//     prefix and never crashed: at P = 1 against a live store, at
//     P ∈ {2, 3, 5} against a sharded one. The crashed store's
//     own pre-crash state equals that reference too: every snapshot
//     publishes only after its log fsync, and a batch is logged as one
//     record, so the batch that died committed on no shard.
//  2. Torn tails are counted, never applied: recovery surfaces each
//     dropped frame through Recovery.TruncatedRecords and the
//     bcq_wal_truncated_records_total metric.
package bcq

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"bcq/internal/live"
	"bcq/internal/wal"
)

// buildDurableScene loads the deterministic social scene used across
// the durability trials. Each call rebuilds the identical database, so
// one trial can hold a durable copy and an in-memory reference copy.
func buildDurableScene(t testing.TB) (*Catalog, *AccessSchema, *Database) {
	t.Helper()
	cat, acc, err := ParseDDL(liveTestDDL)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(cat)
	rng := rand.New(rand.NewSource(11))
	ins := func(rel string, vals ...string) {
		tu := make(Tuple, len(vals))
		for i, v := range vals {
			tu[i] = Str(v)
		}
		if err := db.Insert(rel, tu); err != nil {
			t.Fatal(err)
		}
	}
	const nAlbums, nUsers = 6, 6
	for a := 0; a < nAlbums; a++ {
		for p := 0; p < 4; p++ {
			photo := fmt.Sprintf("a%dp%d", a, p)
			ins("in_album", photo, fmt.Sprintf("a%d", a))
			ins("tagging", photo, fmt.Sprintf("u%d", rng.Intn(nUsers)), fmt.Sprintf("u%d", rng.Intn(nUsers)))
		}
	}
	for u := 0; u < nUsers; u++ {
		for f := 0; f < 3; f++ {
			ins("friends", fmt.Sprintf("u%d", u), fmt.Sprintf("u%d", rng.Intn(nUsers)))
		}
	}
	return cat, acc, db
}

// durableBatches builds a deterministic write sequence: fresh inserts in
// a trial-private keyspace, duplicates of seeded tuples, and deletes of
// the sequence's own earlier inserts — valid in order, so the committed
// prefix of any crash is replayable through normal admission.
func durableBatches(seed int64, n int) [][]LiveOp {
	rng := rand.New(rand.NewSource(seed))
	var batches [][]LiveOp
	var mine [][2]string
	for b := 0; b < n; b++ {
		var ops []LiveOp
		for i := 0; i < 4+rng.Intn(4); i++ {
			photo := fmt.Sprintf("t%dp%d_%d", seed, b, i)
			album := fmt.Sprintf("t%da%d", seed, rng.Intn(3))
			ops = append(ops, InsertOp("in_album", Tuple{Str(photo), Str(album)}))
			ops = append(ops, InsertOp("tagging", Tuple{Str(photo), Str(fmt.Sprintf("u%d", rng.Intn(6))), Str(fmt.Sprintf("u%d", rng.Intn(6)))}))
			mine = append(mine, [2]string{photo, album})
		}
		ops = append(ops, InsertOp("friends", Tuple{Str("u0"), Str("u1")}))
		if len(mine) > 6 && rng.Intn(2) == 0 {
			victim := mine[0]
			mine = mine[1:]
			ops = append(ops, DeleteOp("in_album", Tuple{Str(victim[0]), Str(victim[1])}))
		}
		batches = append(batches, ops)
	}
	return batches
}

// renderStoreState canonicalizes everything the recovery contract
// promises: epoch key, tuple count, cardinality statistics, access
// schema, and every relation's live tuples in sorted order.
func renderStoreState(t testing.TB, cat *Catalog, ld *live.Store) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "epoch=%s tuples=%d\ncard=%+v\naccess=%s\n",
		ld.EpochKey(), ld.NumTuples(), ld.CardStats(), ld.Access().String())
	snap := ld.Snapshot()
	for _, rs := range cat.Relations() {
		var tuples []string
		err := snap.Scan(rs.Name(), func(_ int, tu Tuple) bool {
			tuples = append(tuples, fmt.Sprint(tu))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(tuples)
		fmt.Fprintf(&sb, "%s: %v\n", rs.Name(), tuples)
	}
	return sb.String()
}

// tornBytes keeps an injected torn frame strictly shorter than any real
// frame (8-byte header + a batch payload), so the in-test "crash" never
// accidentally leaves a complete, replayable record behind.
func tornBytes(rng *rand.Rand) int { return rng.Intn(11) }

// TestDurableCrashRecoveryPropertyLive runs the crash-recovery sweep on
// the durable single store — a sharded store at P = 1 — against an
// independent in-memory live store.
func TestDurableCrashRecoveryPropertyLive(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			crashRecoveryTrial(t, 1, 14, int64(1000+trial), int64(trial),
				func(acc *AccessSchema, db *Database) crashReference {
					ref, err := live.New(db, acc, live.Options{})
					if err != nil {
						t.Fatal(err)
					}
					return crashReference{
						apply: func(ops []LiveOp) error { _, err := ref.Apply(ops); return err },
						shard: func(int) *live.Store { return ref },
					}
				})
		})
	}
}

// TestDurableCrashRecoveryPropertySharded runs the crash-recovery sweep
// at P ∈ {2, 3, 5} against an in-memory sharded store of as many shards.
func TestDurableCrashRecoveryPropertySharded(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		for trial := 0; trial < 6; trial++ {
			p, trial := p, trial
			t.Run(fmt.Sprintf("P=%d/trial=%d", p, trial), func(t *testing.T) {
				crashRecoveryTrial(t, p, 16, int64(100*p+trial), int64(10*p+trial),
					func(acc *AccessSchema, db *Database) crashReference {
						ref, err := NewShardedDatabase(db, acc, ShardOptions{Shards: p})
						if err != nil {
							t.Fatal(err)
						}
						return crashReference{apply: ref.Apply, shard: ref.Shard}
					})
			})
		}
	}
}

// crashReference is the in-memory store a crash trial holds the durable
// store to: it applies the batches that committed, and shows its state
// shard by shard (a live store is its own one shard).
type crashReference struct {
	apply func([]LiveOp) error
	shard func(s int) *live.Store
}

// crashRecoveryTrial arms the fail point of a P-shard durable store's one
// log at a randomized append (of nBatches), with a randomized torn-frame
// length, and reopens the directory. The batch whose append dies commits
// on no shard: the crashed store's in-memory state equals the reference,
// which applied only the batches before it, and recovery must reproduce
// that reference shard by shard.
func crashRecoveryTrial(t *testing.T, p, nBatches int, seed, batchSeed int64, newRef func(*AccessSchema, *Database) crashReference) {
	rng := rand.New(rand.NewSource(seed))
	cat, acc, db := buildDurableScene(t)
	_, _, refDB := buildDurableScene(t)
	dir := filepath.Join(t.TempDir(), "store")

	ss, err := NewShardedDatabase(db, acc, ShardOptions{Shards: p, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(acc, refDB)
	kill := 1 + rng.Intn(nBatches)
	torn := tornBytes(rng)
	ss.WAL().SetFailPoint(kill, torn)

	committed := 0
	var wantOps int64
	for _, ops := range durableBatches(batchSeed, nBatches) {
		if err := ss.Apply(ops); err != nil {
			if !errors.Is(err, wal.ErrInjectedCrash) {
				t.Fatalf("batch %d: unexpected apply error: %v", committed, err)
			}
			break
		}
		if err := ref.apply(ops); err != nil {
			t.Fatalf("reference apply: %v", err)
		}
		committed++
		wantOps += int64(len(ops))
	}
	if committed != kill-1 {
		t.Fatalf("fail point at append %d let %d batches commit", kill, committed)
	}

	// The committed state is the reference's, and the crashed store holds
	// no part of the batch that died.
	want := make([]string, p)
	var wantTuples int64
	for s := 0; s < p; s++ {
		want[s] = renderStoreState(t, cat, ref.shard(s))
		wantTuples += ref.shard(s).NumTuples()
		if got := renderStoreState(t, cat, ss.Shard(s)); got != want[s] {
			t.Fatalf("shard %d holds part of the batch that died\n got:  %s\n want: %s", s, got, want[s])
		}
	}

	// The process is "dead": no Close, the torn tail stays.
	re, rec, err := OpenShardedDatabase(dir, cat, acc, ShardOptions{})
	if err != nil {
		t.Fatalf("recovery (kill %d, torn %d): %v", kill, torn, err)
	}
	defer re.Close()
	if re.NumShards() != p {
		t.Fatalf("recovered %d shards, want %d", re.NumShards(), p)
	}
	if torn > 0 && rec.TruncatedRecords == 0 {
		t.Errorf("a %d-byte torn frame was left on the log but recovery truncated nothing", torn)
	}
	if rec.ReplayedBatches != int64(committed) || rec.ReplayedOps != wantOps {
		t.Errorf("replayed %d batches of %d ops, the committed prefix holds %d of %d",
			rec.ReplayedBatches, rec.ReplayedOps, committed, wantOps)
	}
	if re.NumTuples() != wantTuples {
		t.Errorf("recovered store holds %d tuples, want %d", re.NumTuples(), wantTuples)
	}
	for s := 0; s < p; s++ {
		if got := renderStoreState(t, cat, re.Shard(s)); got != want[s] {
			t.Errorf("shard %d diverges from the committed prefix after recovery (kill %d, torn %d)\n got:  %s\n want: %s",
				s, kill, torn, got, want[s])
		}
	}
}

// TestDurableTruncationSurfacesInMetrics recovers a one-shard store with
// exactly one torn frame on its log and requires the drop to surface both
// in the Recovery report and, once, in the Prometheus exposition as
// bcq_wal_truncated_records_total.
func TestDurableTruncationSurfacesInMetrics(t *testing.T) {
	cat, acc, db := buildDurableScene(t)
	dir := filepath.Join(t.TempDir(), "store")
	dur, err := NewShardedDatabase(db, acc, ShardOptions{Shards: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.Apply([]LiveOp{InsertOp("friends", Tuple{Str("u0"), Str("u1")})}); err != nil {
		t.Fatal(err)
	}
	dur.WAL().SetFailPoint(1, 9)
	err = dur.Apply([]LiveOp{InsertOp("friends", Tuple{Str("u0"), Str("u2")})})
	if !errors.Is(err, wal.ErrInjectedCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}

	re, rec, err := OpenShardedDatabase(dir, cat, acc, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rec.TruncatedRecords != 1 || rec.ReplayedOps != 1 {
		t.Fatalf("recovery = %+v, want exactly 1 truncated record and 1 replayed op", rec)
	}

	reg := NewMetricsRegistry()
	re.Instrument(reg)
	expo := reg.Expose()
	for _, line := range []string{"bcq_wal_truncated_records_total 1", "bcq_wal_replayed_records_total 1"} {
		if n := strings.Count("\n"+expo, "\n"+line+"\n"); n != 1 {
			t.Errorf("exposition reports %q %d times, want once:\n%s", line, n, grepLines(expo, "bcq_wal"))
		}
	}
}

// grepLines filters exposition text to the lines containing a substring
// (keeps failure output readable).
func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
