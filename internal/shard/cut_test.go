package shard_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
	"bcq/internal/wal"
)

// TestViewAllocatesNothing: a pin is one load of the published cut, at
// every shard count.
func TestViewAllocatesNothing(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		_, acc, db := scene(t, 4, 4)
		ss, err := shard.New(db, acc, shard.Options{Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		var v *shard.View
		if n := testing.AllocsPerRun(100, func() { v = ss.View() }); n != 0 {
			t.Errorf("P=%d: a pin allocates %v times, want 0", p, n)
		}
		if v.NumShards() != p {
			t.Fatalf("P=%d: the pinned view has %d shards", p, v.NumShards())
		}
	}
}

// inEffect counts the ops of a batch whose effect v shows: an inserted
// tuple present, a deleted one absent. For a batch of tuples new to the
// store (inserts) and present in it (deletes), 0 is "none of it" and
// len(ops) is "all of it".
func inEffect(t *testing.T, v *shard.View, ops []live.Op) int {
	t.Helper()
	n := 0
	for _, op := range ops {
		ts, err := v.Tuples(op.Rel)
		if err != nil {
			t.Fatal(err)
		}
		present := false
		for _, tu := range ts {
			present = present || tu.Equal(op.Tuple)
		}
		if present == (op.Kind == live.OpInsert) {
			n++
		}
	}
	return n
}

// heldStore is a durable two-shard store over the scene, with the first
// cross-shard batch applied and the log's next fsync armed to be held.
func heldStore(t *testing.T) (*shard.Store, *holdFile) {
	t.Helper()
	_, acc, db := scene(t, 4, 4)
	ss, err := shard.New(db, acc, shard.Options{Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	crossShard(t, ss, crossShardBatches()[0])
	hf := &holdFile{entered: make(chan struct{}), release: make(chan struct{})}
	ss.WAL().WrapFile(func(f wal.File) wal.File { hf.File = f; hf.hold.Store(true); return hf })
	return ss, hf
}

// TestViewDoesNotWaitForAHeldFsync: while a cross-shard batch's fsync is
// held, with the writers' lock taken, a pin on the test's own goroutine
// returns the cut from before the batch, and the schema is the one it
// was. Once Apply returns, a new pin holds the whole batch. A View that
// waited for the writer would hang here until the test binary's timeout.
func TestViewDoesNotWaitForAHeldFsync(t *testing.T) {
	ss, hf := heldStore(t)
	batch := crossShardBatches()[1]
	before, acc := ss.View(), ss.Access()

	applied := make(chan error)
	go func() { applied <- ss.Apply(batch) }()
	<-hf.entered
	v := ss.View()
	if !reflect.DeepEqual(v.Epochs(), before.Epochs()) {
		t.Errorf("a pin during the held fsync reads epochs %v, want the pre-batch %v", v.Epochs(), before.Epochs())
	}
	if n := inEffect(t, v, batch); n != 0 {
		t.Errorf("a pin during the held fsync shows %d of the batch's %d ops", n, len(batch))
	}
	if ss.Access() != acc {
		t.Error("the schema changed under a held batch")
	}
	close(hf.release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}

	after := ss.View()
	if n := inEffect(t, after, batch); n != len(batch) {
		t.Errorf("a pin after Apply returned shows %d of the batch's %d ops", n, len(batch))
	}
	moved := 0
	for s, e := range after.Epochs() {
		if e != before.Epochs()[s] {
			moved++
		}
	}
	if moved < 2 {
		t.Errorf("the batch moved %d shard(s) of the cut, want both", moved)
	}
}

// TestViewDoesNotWaitForAHeldCheckpoint: the same with a Compact held in
// the fsync of its log reset, after every shard has checkpointed: a pin
// returns the cut from before the checkpoint, and once Compact returns a
// new pin holds every shard's checkpoint epoch and the same tuples.
func TestViewDoesNotWaitForAHeldCheckpoint(t *testing.T) {
	ss, hf := heldStore(t)
	before := ss.View()

	compacted := make(chan error)
	go func() { compacted <- ss.Compact() }()
	<-hf.entered
	if v := ss.View(); !reflect.DeepEqual(v.Epochs(), before.Epochs()) {
		t.Errorf("a pin during the held checkpoint reads epochs %v, want the pre-checkpoint %v", v.Epochs(), before.Epochs())
	}
	close(hf.release)
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}

	after := ss.View()
	for s, e := range after.Epochs() {
		if e != before.Epochs()[s]+1 {
			t.Errorf("shard %d at epoch %d after the checkpoint, want %d", s, e, before.Epochs()[s]+1)
		}
	}
	for _, rel := range []string{"in_album", "friends", "tagging"} {
		was, err := before.Tuples(rel)
		if err != nil {
			t.Fatal(err)
		}
		now, err := after.Tuples(rel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(now, was) {
			t.Errorf("%s: the checkpoint changed the tuples", rel)
		}
	}
}

// cutDDL is the whole-batch property's schema: part's tuples are placed by
// k, and the query below is bounded only once (k) -> (w, 10) extends it.
const cutDDL = `
relation part(k, v, w)

constraint part: (k) -> (v, 10)
`

// TestCutsHoldWholeBatches is the whole-batch property at P ∈ {2, 3}:
// writers apply batches, each inserting marker tuples on two shards or
// more, while readers pin views and an ExtendAccess races them.
//   - Every pinned view holds each batch wholly or not at all.
//   - A view pinned after an Apply returned, on any goroutine, holds it.
//   - Every constraint of the schema a reader reads has a route in the
//     view it pins next, so a query the extension made bounded never
//     fails on a missing route.
func TestCutsHoldWholeBatches(t *testing.T) {
	for _, p := range []int{2, 3} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) { checkCutsHoldWholeBatches(t, p) })
	}
}

func checkCutsHoldWholeBatches(t *testing.T, p int) {
	cat, acc, err := schema.ParseDDL(cutDDL)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: p})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewSharded(ss, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kv := acc.Constraints()[0]
	ext := schema.MustAccessConstraint("part", []string{"k"}, []string{"w"}, 10)

	// keys[w][i] are the marker keys of writer w's batch i, taken until
	// they land on two shards.
	const writers, batches = 2, 64
	keys := make([][][]value.Tuple, writers)
	for w := range keys {
		keys[w] = make([][]value.Tuple, batches)
		for i := range keys[w] {
			shards := map[int]bool{}
			for j := 0; len(shards) < 2; j++ {
				x := value.Tuple{str(fmt.Sprintf("w%db%dk%d", w, i, j))}
				owner, err := ss.View().Partition(kv, []value.Tuple{x})
				if err != nil {
					t.Fatal(err)
				}
				shards[owner[0]] = true
				keys[w][i] = append(keys[w][i], x)
			}
		}
	}
	// held counts the keys of a batch a view holds.
	held := func(v *shard.View, xs []value.Tuple) int {
		groups, err := v.FetchBatch(kv, xs)
		if err != nil {
			t.Error(err)
			return -1
		}
		n := 0
		for _, g := range groups {
			if len(g) > 0 {
				n++
			}
		}
		return n
	}

	var returned [writers][batches]atomic.Bool
	var wg, readers sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, xs := range keys[w] {
				ops := make([]live.Op, len(xs))
				for j, x := range xs {
					ops[j] = live.Insert("part", value.Tuple{x[0], str("m"), str("m")})
				}
				if err := ss.Apply(ops); err != nil {
					t.Error(err)
					return
				}
				if n := held(ss.View(), xs); n != len(xs) {
					t.Errorf("writer %d: the view pinned after batch %d returned holds %d of its %d keys", w, i, n, len(xs))
				}
				returned[w][i].Store(true)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ss.ExtendAccess(ext); err != nil {
			t.Error(err)
		}
	}()
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for first := true; first || !stop.Load(); first = false {
				var done [writers][batches]bool
				for w := range done {
					for i := range done[w] {
						done[w][i] = returned[w][i].Load()
					}
				}
				sch := ss.Access()
				v := ss.View()
				for _, ac := range sch.Constraints() {
					if _, err := v.Partition(ac, nil); err != nil {
						t.Errorf("the schema read before a pin has %s, which the pinned view cannot route: %v", ac, err)
					}
				}
				for w := range keys {
					for i, xs := range keys[w] {
						n := held(v, xs)
						if n != 0 && n != len(xs) {
							t.Errorf("a pinned view holds %d of the %d keys of writer %d's batch %d", n, len(xs), w, i)
						}
						if done[w][i] && n != len(xs) {
							t.Errorf("a view pinned after writer %d's batch %d returned holds %d of its %d keys", w, i, n, len(xs))
						}
					}
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for first := true; first || !stop.Load(); first = false {
			prep, err := eng.Prepare(`select w from part where k = ?`)
			if err != nil {
				continue // not bounded until the extension is published
			}
			if _, err := prep.Exec(str("w0b0k0")); err != nil {
				t.Errorf("a plan prepared on the extended schema failed on the view it pinned: %v", err)
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	readers.Wait()

	v := ss.View()
	for w := range keys {
		for i, xs := range keys[w] {
			if n := held(v, xs); n != len(xs) {
				t.Errorf("the final view holds %d of the %d keys of writer %d's batch %d", n, len(xs), w, i)
			}
		}
	}
	prep, err := eng.Prepare(`select w from part where k = ?`)
	if err != nil {
		t.Fatalf("after the extension: %v", err)
	}
	res, err := prep.Exec(str("w0b0k0"))
	if err != nil || len(res.Tuples) != 1 || !res.Tuples[0].Equal(value.Tuple{str("m")}) {
		t.Errorf("after the extension: %v, %v", res, err)
	}
}

// TestAccessIsTheCuts: the schema a sharded store reports, and its
// version, are the published cut's. With an extension committed on shard
// 0 and in no cut — the state between an ExtendAccess's first shard
// commit and its publication, made here by extending shard 0 of an
// in-memory store directly — the engine cannot plan a query on the new
// constraint, which the cut it would run on cannot route; once the store
// publishes the extension, the query plans and runs.
func TestAccessIsTheCuts(t *testing.T) {
	cat, acc, err := schema.ParseDDL(cutDDL)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	for i := 0; i < 8; i++ {
		if err := db.Insert("part", value.Tuple{str(fmt.Sprintf("k%d", i)), str("v"), str("w")}); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := shard.New(db, acc, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.NewSharded(ss, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const q = `select w from part where k = ?`
	ext := schema.MustAccessConstraint("part", []string{"k"}, []string{"w"}, 10)
	version := ss.SchemaVersion()

	if err := ss.Shard(0).ExtendAccess(ext); err != nil {
		t.Fatal(err)
	}
	if ss.Access().Size() != 1 || ss.SchemaVersion() != version {
		t.Errorf("an extension in no cut shows: %d constraints, version %d -> %d", ss.Access().Size(), version, ss.SchemaVersion())
	}
	if _, err := eng.Prepare(q); err == nil {
		t.Error("the engine planned on a constraint no published cut routes")
	}

	if err := ss.ExtendAccess(ext); err != nil {
		t.Fatal(err)
	}
	if ss.Access().Size() != 2 || ss.SchemaVersion() <= version {
		t.Errorf("the published extension: %d constraints, version %d -> %d", ss.Access().Size(), version, ss.SchemaVersion())
	}
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := prep.Exec(str("k3")); err != nil || len(res.Tuples) != 1 {
		t.Errorf("k3 through the published extension: %v, %v", res, err)
	}
}
