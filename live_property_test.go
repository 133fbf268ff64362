// Property tests for the live layer's two contracts under concurrency
// (run them with -race):
//
//  1. Snapshot isolation: a result computed while writers churn is
//     byte-identical to evaluating on the pinned snapshot alone — both
//     to re-running on the same pin later and to running on a sealed
//     database rebuilt from the pin's contents.
//  2. Bounded access: a bounded query's tuple-access count stays exactly
//     flat while |D| grows through live inserts.
package bcq

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

const liveTestDDL = `
relation in_album(photo_id, album_id)
relation friends(user_id, friend_id)
relation tagging(photo_id, tagger_id, taggee_id)

constraint in_album: (album_id) -> (photo_id, 1000)
constraint friends: (user_id) -> (friend_id, 5000)
constraint tagging: (photo_id, taggee_id) -> (tagger_id, 1)
`

const liveTestQuery = `
query Q0:
select t1.photo_id
from in_album as t1, friends as t2, tagging as t3
where t1.album_id = ? and t2.user_id = ?
  and t1.photo_id = t3.photo_id
  and t3.tagger_id = t2.friend_id
  and t3.taggee_id = t2.user_id
`

// seedLiveScene loads a deterministic social scene: nAlbums albums of 6
// photos, nUsers users with 4 friends, each photo tagged once.
func seedLiveScene(t testing.TB, nAlbums, nUsers int) (*LiveDatabase, *Engine, *Prepared) {
	t.Helper()
	cat, acc, err := ParseDDL(liveTestDDL)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(cat)
	rng := rand.New(rand.NewSource(1))
	ins := func(rel string, vals ...string) {
		t.Helper()
		tu := make(Tuple, len(vals))
		for i, v := range vals {
			tu[i] = Str(v)
		}
		if err := db.Insert(rel, tu); err != nil {
			t.Fatal(err)
		}
	}
	user := func(i int) string { return fmt.Sprintf("u%d", i) }
	for a := 0; a < nAlbums; a++ {
		for p := 0; p < 6; p++ {
			photo := fmt.Sprintf("a%dp%d", a, p)
			ins("in_album", photo, fmt.Sprintf("a%d", a))
			taggee := user(rng.Intn(nUsers))
			ins("tagging", photo, user(rng.Intn(nUsers)), taggee)
		}
	}
	for u := 0; u < nUsers; u++ {
		for f := 0; f < 4; f++ {
			ins("friends", user(u), user(rng.Intn(nUsers)))
		}
	}

	ld, err := NewLiveDatabase(db, acc, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLiveEngine(ld, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(liveTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	return ld, eng, prep
}

func renderLiveResult(r *Result) string {
	return fmt.Sprintf("cols=%v tuples=%v stats=%+v dq=%d", r.Cols, r.Tuples, r.Stats, r.DQSize)
}

// TestLiveSnapshotIsolationUnderConcurrentIngest churns writers (fresh
// inserts, duplicates, deletes of own earlier inserts) while readers pin
// snapshots and execute a prepared query. Every reader requires its
// result to be byte-identical (answers, per-result access stats, |D_Q|)
// to (a) re-executing on the same pinned snapshot and (b) executing on a
// sealed database frozen from that snapshot.
func TestLiveSnapshotIsolationUnderConcurrentIngest(t *testing.T) {
	const (
		nAlbums  = 12
		nUsers   = 8
		writers  = 2
		batches  = 60
		readers  = 3
		readIter = 40
	)
	ld, _, prep := seedLiveScene(t, nAlbums, nUsers)

	var wg sync.WaitGroup
	writersDone := make(chan struct{})

	// Writers own disjoint keyspaces (photos/albums prefixed w{id}), so
	// every batch is schema-valid and every delete target exists: Apply
	// must never fail.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var mine [][2]string // (rel, photo) tuples this writer can delete
			for b := 0; b < batches; b++ {
				var ops []LiveOp
				for i := 0; i < 8; i++ {
					photo := fmt.Sprintf("w%dp%d_%d", w, b, i)
					album := fmt.Sprintf("w%da%d", w, rng.Intn(4))
					ops = append(ops, InsertOp("in_album", Tuple{Str(photo), Str(album)}))
					ops = append(ops, InsertOp("tagging", Tuple{Str(photo), Str(fmt.Sprintf("u%d", rng.Intn(nUsers))), Str(fmt.Sprintf("u%d", rng.Intn(nUsers)))}))
					mine = append(mine, [2]string{photo, album})
				}
				// Duplicate a base tuple (never violates), and sometimes
				// retire an earlier own insert (exercises re-witnessing).
				ops = append(ops, InsertOp("friends", Tuple{Str("u0"), Str("u1")}))
				if len(mine) > 4 && rng.Intn(2) == 0 {
					victim := mine[0]
					mine = mine[1:]
					ops = append(ops, DeleteOp("in_album", Tuple{Str(victim[0]), Str(victim[1])}))
				}
				if _, err := ld.Apply(ops); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(writersDone)
	}()

	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < readIter; i++ {
				album := Str(fmt.Sprintf("a%d", rng.Intn(nAlbums)))
				user := Str(fmt.Sprintf("u%d", rng.Intn(nUsers)))
				snap := ld.Snapshot()
				res, err := prep.ExecOn(snap, album, user)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				// Re-evaluate on the same pin while writers advance.
				again, err := prep.ExecOn(snap, album, user)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if got, want := renderLiveResult(again), renderLiveResult(res); got != want {
					t.Errorf("reader %d: pinned snapshot re-evaluation diverged\n first:  %s\n second: %s", r, want, got)
					return
				}
				if i%8 == 0 {
					frozen, err := snap.Freeze()
					if err != nil {
						t.Errorf("reader %d: freeze: %v", r, err)
						return
					}
					ref, err := prep.ExecOn(frozen, album, user)
					if err != nil {
						t.Errorf("reader %d: frozen run: %v", r, err)
						return
					}
					if got, want := renderLiveResult(res), renderLiveResult(ref); got != want {
						t.Errorf("reader %d: live snapshot diverges from rebuilt database\n live:   %s\n frozen: %s", r, got, want)
						return
					}
				}
			}
		}(r)
	}
	rg.Wait()
	<-writersDone

	if errs := ld.Quarantine(); len(errs) != 0 {
		t.Fatalf("strict store quarantined %d ops", len(errs))
	}
}

// TestLiveBoundedAccessStaysFlatAsDGrows checks contract (b): with the
// query's answer fixed, growing |D| by an order of magnitude through
// live inserts (duplicates plus fresh tuples in unrelated groups) leaves
// the per-evaluation tuple-access count exactly unchanged.
func TestLiveBoundedAccessStaysFlatAsDGrows(t *testing.T) {
	ld, _, prep := seedLiveScene(t, 8, 6)
	album, user := Str("a1"), Str("u3")

	first, err := prep.Exec(album, user)
	if err != nil {
		t.Fatal(err)
	}
	d0 := ld.Snapshot().NumTuples()

	rng := rand.New(rand.NewSource(7))
	base := ld.Base()
	rel := base.MustRelation("friends")
	for round := 1; round <= 4; round++ {
		var ops []LiveOp
		// Duplicates of base friendships...
		for i := 0; i < 2*int(d0); i++ {
			ops = append(ops, InsertOp("friends", rel.Tuples[rng.Intn(len(rel.Tuples))]))
		}
		// ...and fresh tuples in groups the query never touches.
		for i := 0; i < 64; i++ {
			photo := fmt.Sprintf("growth%d_%d", round, i)
			ops = append(ops, InsertOp("in_album", Tuple{Str(photo), Str("growth-album")}))
		}
		for lo := 0; lo < len(ops); lo += 128 {
			hi := min(lo+128, len(ops))
			if _, err := ld.Apply(ops[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}

		res, err := prep.Exec(album, user)
		if err != nil {
			t.Fatal(err)
		}
		dn := ld.Snapshot().NumTuples()
		if res.Stats.TuplesFetched != first.Stats.TuplesFetched ||
			res.Stats.IndexLookups != first.Stats.IndexLookups {
			t.Fatalf("round %d: access stats moved with |D| (%d → %d tuples): %+v vs %+v",
				round, d0, dn, first.Stats, res.Stats)
		}
		if fmt.Sprint(res.Tuples) != fmt.Sprint(first.Tuples) {
			t.Fatalf("round %d: answers changed under growth-only ingest", round)
		}
	}
	dn := ld.Snapshot().NumTuples()
	if dn < 8*d0 {
		t.Fatalf("|D| grew only %d → %d; test intended an order of magnitude", d0, dn)
	}
	t.Logf("|D| %d → %d (×%.1f): fetched stayed at %d tuples, %d lookups",
		d0, dn, float64(dn)/float64(d0), first.Stats.TuplesFetched, first.Stats.IndexLookups)
}
