// Property tests for the sharded store's contract (run them with -race):
// scatter-gather execution over P partitions is byte-identical — answers,
// per-result access statistics and |D_Q| — to single-store execution,
// for every generated workload query and every shard count, both on
// static data and while per-shard ingest churns concurrently.
package bcq

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bcq/internal/datagen"
	"bcq/internal/plan"
	"bcq/internal/querygen"
)

// shardCounts is the P set the properties are checked at: one even, two
// odd/prime, so hash balance and routing are exercised off the
// powers-of-two happy path.
var shardCounts = []int{2, 3, 5}

// TestShardedWorkloadMatchesSingleStore runs every effectively bounded
// query of the generated 15-query workloads against a single sealed
// database and against sharded stores at P ∈ {2, 3, 5}, requiring
// byte-identical results. TFACC's relations partition by their key
// constraints; MOT's wide fact table has bounded-domain constraints and
// therefore pins, exercising the no-scale-out fallback.
func TestShardedWorkloadMatchesSingleStore(t *testing.T) {
	type cse struct {
		ds    *datagen.Dataset
		scale float64
	}
	cases := []cse{{datagen.TFACC(), 1.0 / 16}, {datagen.MOT(), 1.0 / 16}}
	if !testing.Short() {
		cases = append(cases, cse{datagen.TPCH(), 1.0 / 16})
	}
	for _, c := range cases {
		t.Run(c.ds.Name, func(t *testing.T) {
			db, err := c.ds.Build(c.scale)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := querygen.Workload(c.ds, querygen.Seed)
			if err != nil {
				t.Fatal(err)
			}

			// Shard stores read the base before the single engine seals it
			// (either order works; this mirrors production construction).
			sharded := make(map[int]*Engine, len(shardCounts))
			for _, p := range shardCounts {
				ss, err := NewShardedDatabase(db, c.ds.Access, ShardOptions{Shards: p})
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				eng, err := NewShardedEngine(ss, EngineOptions{})
				if err != nil {
					t.Fatalf("P=%d: %v", p, err)
				}
				sharded[p] = eng
			}
			single, err := NewEngine(c.ds.Catalog, c.ds.Access, db, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}

			checked := 0
			for _, w := range ws {
				prep, err := single.PrepareQuery(w.Query)
				if err != nil {
					var neb *plan.NotEffectivelyBoundedError
					if errors.As(err, &neb) {
						continue
					}
					t.Fatal(err)
				}
				want, err := prep.Exec()
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range shardCounts {
					sprep, err := sharded[p].PrepareQuery(w.Query)
					if err != nil {
						t.Fatalf("%s P=%d: %v", w.Query.Name, p, err)
					}
					got, err := sprep.Exec()
					if err != nil {
						t.Fatalf("%s P=%d: %v", w.Query.Name, p, err)
					}
					if renderLiveResult(got) != renderLiveResult(want) {
						t.Errorf("%s P=%d diverged\n got:  %s\n want: %s",
							w.Query.Name, p, renderLiveResult(got), renderLiveResult(want))
					}
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no effectively bounded workload queries checked")
			}
		})
	}
}

// seedShardScene loads the live test scene into a fresh database and
// shards it, returning the store and a prepared parameterized query.
func seedShardScene(t testing.TB, nAlbums, nUsers, p int) (*ShardedDatabase, *Prepared) {
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
		for ph := 0; ph < 6; ph++ {
			photo := fmt.Sprintf("a%dp%d", a, ph)
			ins("in_album", photo, fmt.Sprintf("a%d", a))
			ins("tagging", photo, user(rng.Intn(nUsers)), user(rng.Intn(nUsers)))
		}
	}
	for u := 0; u < nUsers; u++ {
		for f := 0; f < 4; f++ {
			ins("friends", user(u), user(rng.Intn(nUsers)))
		}
	}
	ss, err := NewShardedDatabase(db, acc, ShardOptions{Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewShardedEngine(ss, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(liveTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	return ss, prep
}

// TestShardedExecutionUnderConcurrentIngest churns writers (fresh
// inserts, duplicates, deletes of own earlier inserts) against a sharded
// store while readers pin epoch vectors and execute. Every reader
// requires its result to be byte-identical to (a) re-executing on the
// same pinned view and (b) executing on a single sealed database frozen
// from that view — the single-store path over exactly the view's data.
func TestShardedExecutionUnderConcurrentIngest(t *testing.T) {
	for _, p := range shardCounts {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			const (
				nAlbums  = 10
				nUsers   = 8
				writers  = 3
				batches  = 40
				readers  = 3
				readIter = 25
			)
			ss, prep := seedShardScene(t, nAlbums, nUsers, p)

			var wg sync.WaitGroup
			writersDone := make(chan struct{})
			// Writers own disjoint keyspaces, so every batch is
			// schema-valid and every delete target exists.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					var mine [][2]string
					for b := 0; b < batches; b++ {
						var ops []LiveOp
						for i := 0; i < 6; i++ {
							photo := fmt.Sprintf("w%dp%d_%d", w, b, i)
							album := fmt.Sprintf("w%da%d", w, rng.Intn(4))
							ops = append(ops, InsertOp("in_album", Tuple{Str(photo), Str(album)}))
							ops = append(ops, InsertOp("tagging", Tuple{Str(photo), Str(fmt.Sprintf("u%d", rng.Intn(nUsers))), Str(fmt.Sprintf("u%d", rng.Intn(nUsers)))}))
							mine = append(mine, [2]string{photo, album})
						}
						ops = append(ops, InsertOp("friends", Tuple{Str("u0"), Str("u1")}))
						if len(mine) > 4 && rng.Intn(2) == 0 {
							victim := mine[0]
							mine = mine[1:]
							ops = append(ops, DeleteOp("in_album", Tuple{Str(victim[0]), Str(victim[1])}))
						}
						if err := ss.Apply(ops); err != nil {
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
						v := ss.View()
						res, err := prep.ExecOn(v, album, user)
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						again, err := prep.ExecOn(v, album, user)
						if err != nil {
							t.Errorf("reader %d: %v", r, err)
							return
						}
						if got, want := renderLiveResult(again), renderLiveResult(res); got != want {
							t.Errorf("reader %d: pinned view re-evaluation diverged\n first:  %s\n second: %s", r, want, got)
							return
						}
						if i%6 == 0 {
							frozen, err := v.Freeze()
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
								t.Errorf("reader %d: sharded view diverges from rebuilt database\n sharded: %s\n frozen:  %s", r, got, want)
								return
							}
						}
					}
				}(r)
			}
			rg.Wait()
			<-writersDone

			if errs := ss.Quarantine(); len(errs) != 0 {
				t.Fatalf("strict sharded store quarantined %d ops", len(errs))
			}
			// Quiescent sweep: every (album, user) pair, sharded vs frozen.
			v := ss.View()
			frozen, err := v.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			for a := 0; a < nAlbums; a++ {
				for u := 0; u < nUsers; u++ {
					album, user := Str(fmt.Sprintf("a%d", a)), Str(fmt.Sprintf("u%d", u))
					got, err := prep.ExecOn(v, album, user)
					if err != nil {
						t.Fatal(err)
					}
					want, err := prep.ExecOn(frozen, album, user)
					if err != nil {
						t.Fatal(err)
					}
					if renderLiveResult(got) != renderLiveResult(want) {
						t.Errorf("a%d/u%d diverged after quiescence\n got:  %s\n want: %s",
							a, u, renderLiveResult(got), renderLiveResult(want))
					}
				}
			}
		})
	}
}
