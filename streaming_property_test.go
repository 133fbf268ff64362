// Property tests for the streaming executor's two contracts (run them
// with -race):
//
//  1. Equivalence: a drained stream is byte-identical to the
//     materializing execution — answers, access statistics, |D_Q| — on
//     every store kind (sealed, live snapshot, sharded view).
//  2. Pinned-snapshot paging: pulling a stream to exhaustion across many
//     small pages while writers churn the live store yields exactly the
//     answer of a one-shot execution on the pinned snapshot; concurrent
//     ingest can never leak into an open scan.
package bcq

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// drainStream pulls a stream to exhaustion through Next (page tuples at
// a time, like a paging client) and returns the sorted answers.
func drainStream(t testing.TB, s *Stream, page int) []Tuple {
	t.Helper()
	var got []Tuple
	for {
		n := 0
		for n < page {
			tu, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				sort.Slice(got, func(i, j int) bool { return got[i].Compare(got[j]) < 0 })
				return got
			}
			got = append(got, tu)
			n++
		}
	}
}

// TestStreamingMatchesMaterializedAcrossStores checks contract (1) on
// all three store kinds over the shared social scene.
func TestStreamingMatchesMaterializedAcrossStores(t *testing.T) {
	const nAlbums, nUsers = 10, 6

	t.Run("live-and-sealed", func(t *testing.T) {
		ld, _, prep := seedLiveScene(t, nAlbums, nUsers)
		snap := ld.Shard(0).Snapshot() // the one shard's live snapshot
		frozen, err := snap.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for a := 0; a < nAlbums; a++ {
			for u := 0; u < nUsers; u++ {
				album, user := Str(fmt.Sprintf("a%d", a)), Str(fmt.Sprintf("u%d", u))
				for _, st := range []Store{snap, frozen} {
					full, err := prep.ExecOn(st, album, user)
					if err != nil {
						t.Fatal(err)
					}
					stream, err := prep.ExecStreamOn(st, StreamOptions{}, album, user)
					if err != nil {
						t.Fatal(err)
					}
					res, err := stream.Drain()
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(res.Tuples) != fmt.Sprint(full.Tuples) {
						t.Fatalf("a%d/u%d: stream %v != materialized %v", a, u, res.Tuples, full.Tuples)
					}
					if len(full.Tuples) > 0 {
						if got, want := renderLiveResult(res), renderLiveResult(full); got != want {
							t.Fatalf("a%d/u%d: stream diverged on non-empty answer\n stream: %s\n full:   %s", a, u, got, want)
						}
					}
					if len(full.Tuples) > 0 {
						checked++
					}
				}
			}
		}
		if checked == 0 {
			t.Fatal("no non-empty answers checked; scene too sparse")
		}
	})

	t.Run("sharded", func(t *testing.T) {
		_, prep := seedShardScene(t, nAlbums, nUsers, 4)
		checked := 0
		for a := 0; a < nAlbums; a++ {
			for u := 0; u < nUsers; u++ {
				album, user := Str(fmt.Sprintf("a%d", a)), Str(fmt.Sprintf("u%d", u))
				full, err := prep.Exec(album, user)
				if err != nil {
					t.Fatal(err)
				}
				stream, err := prep.ExecStream(StreamOptions{}, album, user)
				if err != nil {
					t.Fatal(err)
				}
				res, err := stream.Drain()
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(res.Tuples) != fmt.Sprint(full.Tuples) {
					t.Fatalf("a%d/u%d: sharded stream %v != materialized %v", a, u, res.Tuples, full.Tuples)
				}
				if len(full.Tuples) > 0 {
					if got, want := renderLiveResult(res), renderLiveResult(full); got != want {
						t.Fatalf("a%d/u%d: sharded stream diverged\n stream: %s\n full:   %s", a, u, got, want)
					}
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatal("no non-empty answers checked; scene too sparse")
		}
	})
}

// TestStreamingPagingUnderConcurrentIngest checks contract (2): readers
// open a stream on a pinned snapshot and page it to exhaustion in tiny
// pages while writers keep committing batches; every scan's union of
// pages must be byte-identical to the one-shot answer on the same pin,
// and ExecLimit answers must be true-answer prefixes.
func TestStreamingPagingUnderConcurrentIngest(t *testing.T) {
	const (
		nAlbums  = 12
		nUsers   = 8
		writers  = 2
		batches  = 50
		readers  = 3
		readIter = 25
	)
	ld, _, prep := seedLiveScene(t, nAlbums, nUsers)

	var wg sync.WaitGroup
	writersDone := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + w)))
			for b := 0; b < batches; b++ {
				var ops []LiveOp
				for i := 0; i < 8; i++ {
					photo := fmt.Sprintf("sw%dp%d_%d", w, b, i)
					// Writes land in the very albums being paged, plus
					// fresh taggings, so a leaky scan would see them.
					ops = append(ops, InsertOp("in_album", Tuple{Str(photo), Str(fmt.Sprintf("a%d", rng.Intn(nAlbums)))}))
					ops = append(ops, InsertOp("tagging", Tuple{Str(photo), Str(fmt.Sprintf("u%d", rng.Intn(nUsers))), Str(fmt.Sprintf("u%d", rng.Intn(nUsers)))}))
				}
				if err := ld.Apply(ops); err != nil {
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
			rng := rand.New(rand.NewSource(int64(400 + r)))
			for i := 0; i < readIter; i++ {
				album := Str(fmt.Sprintf("a%d", rng.Intn(nAlbums)))
				user := Str(fmt.Sprintf("u%d", rng.Intn(nUsers)))
				snap := ld.View()
				full, err := prep.ExecOn(snap, album, user)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				stream, err := prep.ExecStreamOn(snap, StreamOptions{}, album, user)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				paged := drainStream(t, stream, 1+rng.Intn(3))
				if fmt.Sprint(paged) != fmt.Sprint(full.Tuples) {
					t.Errorf("reader %d: paged union %v != pinned one-shot %v", r, paged, full.Tuples)
					return
				}

				// Early termination on the same pin: a limit-K answer is
				// min(K, |Q(D)|) true answers for no more fetching.
				lim, err := prep.ExecLimitOn(snap, 2, album, user)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				want := min(2, len(full.Tuples))
				if len(lim.Tuples) != want {
					t.Errorf("reader %d: limit 2 returned %d answers, want %d", r, len(lim.Tuples), want)
					return
				}
				inFull := make(map[string]bool, len(full.Tuples))
				for _, tu := range full.Tuples {
					inFull[fmt.Sprint(tu)] = true
				}
				for _, tu := range lim.Tuples {
					if !inFull[fmt.Sprint(tu)] {
						t.Errorf("reader %d: limited answer %v is not a true answer", r, tu)
						return
					}
				}
				if lim.Stats.TuplesFetched > full.Stats.TuplesFetched {
					t.Errorf("reader %d: limited run fetched %d > full run's %d", r, lim.Stats.TuplesFetched, full.Stats.TuplesFetched)
					return
				}
			}
		}(r)
	}
	rg.Wait()
	<-writersDone
}
