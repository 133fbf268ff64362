// Crash-recovery property tests for the durable tier (CI runs them
// under -race):
//
//  1. Committed-prefix identity: for ANY kill point — a fail point armed
//     on the n-th WAL append leaves a torn, unfsynced frame exactly the
//     way power loss mid-write would — reopening the directory yields a
//     store byte-identical (tuples, epoch key, cardinality statistics,
//     access schema) to one that applied the committed prefix and never
//     crashed. Checked on the single live store against an independent
//     in-memory reference, and on sharded stores (P ∈ {2, 3, 5}) against
//     the crashed store's own pre-crash state, which IS the committed
//     state because every snapshot publishes only after its WAL fsync —
//     and which holds no part of the batch that died: a sharded store
//     logs a batch as one record, so it commits on every shard or none.
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
func renderStoreState(t testing.TB, cat *Catalog, ld *LiveDatabase) string {
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

// TestDurableCrashRecoveryPropertyLive kills the single live store at a
// randomized WAL append with a randomized torn-frame length, reopens the
// directory, and requires the recovered store byte-identical to an
// in-memory reference that applied exactly the committed prefix.
func TestDurableCrashRecoveryPropertyLive(t *testing.T) {
	const nBatches = 14
	for trial := 0; trial < 6; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			cat, acc, db := buildDurableScene(t)
			_, _, refDB := buildDurableScene(t)
			dir := filepath.Join(t.TempDir(), "store")

			dur, err := NewLiveDatabase(db, acc, LiveOptions{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewLiveDatabase(refDB, acc, LiveOptions{})
			if err != nil {
				t.Fatal(err)
			}

			kill := 1 + rng.Intn(nBatches)
			torn := tornBytes(rng)
			dur.WAL().SetFailPoint(kill, torn)

			batches := durableBatches(int64(trial), nBatches)
			committed := 0
			for _, ops := range batches {
				if _, err := dur.Apply(ops); err != nil {
					if !errors.Is(err, wal.ErrInjectedCrash) {
						t.Fatalf("batch %d: unexpected apply error: %v", committed, err)
					}
					break
				}
				if _, err := ref.Apply(ops); err != nil {
					t.Fatalf("reference apply: %v", err)
				}
				committed++
			}
			if committed != kill-1 {
				t.Fatalf("fail point at append %d let %d batches commit", kill, committed)
			}

			// The process is "dead": no Close, the torn tail stays.
			re, rec, err := OpenLiveDatabase(dir, cat, acc, LiveOptions{})
			if err != nil {
				t.Fatalf("recovery after kill point %d (torn %d): %v", kill, torn, err)
			}
			defer re.Close()

			var wantOps int64
			for _, ops := range batches[:committed] {
				wantOps += int64(len(ops))
			}
			if rec.ReplayedOps != wantOps {
				t.Errorf("replayed %d ops, committed prefix holds %d", rec.ReplayedOps, wantOps)
			}
			if torn > 0 && rec.TruncatedRecords == 0 {
				t.Errorf("a %d-byte torn frame was left behind but recovery truncated nothing", torn)
			}
			if got, want := renderStoreState(t, cat, re), renderStoreState(t, cat, ref); got != want {
				t.Errorf("kill point %d (torn %d): recovered store diverges from committed prefix\n got:  %s\n want: %s",
					kill, torn, got, want)
			}
		})
	}
}

// TestDurableCrashRecoveryPropertySharded arms the fail point of the
// store's one log at P ∈ {2, 3, 5}. The batch whose append dies commits
// on no shard: the crashed store's in-memory state equals an in-memory
// sharded reference that applied only the batches before it, and that
// state is the committed one — snapshots publish only after the log's
// fsync — so recovery must reproduce it shard by shard.
func TestDurableCrashRecoveryPropertySharded(t *testing.T) {
	const nBatches = 16
	for _, p := range []int{2, 3, 5} {
		for trial := 0; trial < 2; trial++ {
			p, trial := p, trial
			t.Run(fmt.Sprintf("P=%d/trial=%d", p, trial), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*p + trial)))
				cat, acc, db := buildDurableScene(t)
				_, _, refDB := buildDurableScene(t)
				dir := filepath.Join(t.TempDir(), "store")

				ss, err := NewShardedDatabase(db, acc, ShardOptions{Shards: p, Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := NewShardedDatabase(refDB, acc, ShardOptions{Shards: p})
				if err != nil {
					t.Fatal(err)
				}
				kill := 1 + rng.Intn(nBatches)
				torn := tornBytes(rng)
				ss.WAL().SetFailPoint(kill, torn)

				committed := 0
				for _, ops := range durableBatches(int64(10*p+trial), nBatches) {
					if err := ss.Apply(ops); err != nil {
						if !errors.Is(err, wal.ErrInjectedCrash) {
							t.Fatalf("batch %d: unexpected apply error: %v", committed, err)
						}
						break
					}
					if err := ref.Apply(ops); err != nil {
						t.Fatalf("reference apply: %v", err)
					}
					committed++
				}
				if committed != kill-1 {
					t.Fatalf("fail point at append %d let %d batches commit", kill, committed)
				}

				// Pre-crash in-memory state = committed state = the reference.
				want := make([]string, p)
				for s := 0; s < p; s++ {
					want[s] = renderStoreState(t, cat, ss.Shard(s))
					if got := renderStoreState(t, cat, ref.Shard(s)); got != want[s] {
						t.Fatalf("shard %d holds part of the batch that died\n got:  %s\n want: %s", s, want[s], got)
					}
				}
				wantEpoch, wantTuples := ss.EpochKey(), ss.NumTuples()

				re, rec, err := OpenShardedDatabase(dir, cat, acc, ShardOptions{})
				if err != nil {
					t.Fatalf("recovery (kill %d, torn %d): %v", kill, torn, err)
				}
				defer re.Close()
				if re.NumShards() != p {
					t.Fatalf("recovered %d shards, want %d", re.NumShards(), p)
				}
				if torn > 0 && rec.TruncatedRecords == 0 {
					t.Errorf("a torn frame was left on the log but recovery truncated nothing")
				}
				if rec.ReplayedBatches != int64(committed) {
					t.Errorf("replayed %d batches, %d committed", rec.ReplayedBatches, committed)
				}
				if re.EpochKey() != wantEpoch || re.NumTuples() != wantTuples {
					t.Errorf("recovered store at %s/%d tuples, want %s/%d",
						re.EpochKey(), re.NumTuples(), wantEpoch, wantTuples)
				}
				for s := 0; s < p; s++ {
					if got := renderStoreState(t, cat, re.Shard(s)); got != want[s] {
						t.Errorf("shard %d diverges after recovery (kill %d, torn %d)\n got:  %s\n want: %s",
							s, kill, torn, got, want[s])
					}
				}
			})
		}
	}
}

// TestDurableTruncationSurfacesInMetrics recovers a store with exactly
// one torn WAL frame and requires the drop to surface both in the
// Recovery report and in the Prometheus exposition as
// bcq_wal_truncated_records_total.
func TestDurableTruncationSurfacesInMetrics(t *testing.T) {
	cat, acc, db := buildDurableScene(t)
	dir := filepath.Join(t.TempDir(), "store")
	dur, err := NewLiveDatabase(db, acc, LiveOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dur.Apply([]LiveOp{InsertOp("friends", Tuple{Str("u0"), Str("u1")})}); err != nil {
		t.Fatal(err)
	}
	dur.WAL().SetFailPoint(1, 9)
	_, err = dur.Apply([]LiveOp{InsertOp("friends", Tuple{Str("u0"), Str("u2")})})
	if !errors.Is(err, wal.ErrInjectedCrash) {
		t.Fatalf("expected injected crash, got %v", err)
	}

	re, rec, err := OpenLiveDatabase(dir, cat, acc, LiveOptions{})
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
	if !strings.Contains(expo, "bcq_wal_truncated_records_total 1") {
		t.Errorf("exposition does not report the truncated frame:\n%s", grepLines(expo, "bcq_wal"))
	}
	if !strings.Contains(expo, "bcq_wal_replayed_records_total 1") {
		t.Errorf("exposition does not report the replayed record:\n%s", grepLines(expo, "bcq_wal"))
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
