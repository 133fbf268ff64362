package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"bcq/internal/live"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/stats"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// fixedGroupScene builds a live store over r(a, b) that is effectively
// bounded from the start (r: (a) -> (b, N)), holding the fixed answer
// group a=1 -> {10, 11}, under an engine.
func fixedGroupScene(t testing.TB) (*live.Store, *Engine) {
	t.Helper()
	r, err := schema.NewRelation("r", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := schema.NewCatalog(r)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := schema.NewAccessSchema(schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 100))
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	for _, b := range []int64{10, 11} {
		if err := db.Insert("r", value.Tuple{value.Int(1), value.Int(b)}); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := live.New(db, acc, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewLive(ls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ls, e
}

const fixedGroupQuery = `select b from r where a = 1`

// countingSource counts the statistics snapshots an engine asks its
// source for.
type countingSource struct {
	Source
	snapshots atomic.Int64
}

func (s *countingSource) CardStats() stats.Snapshot {
	s.snapshots.Add(1)
	return s.Source.CardStats()
}

// TestPlanningBuildsNoStatisticsSnapshot: a cold prepare, which runs the
// cost-based optimizer, and the hit after it cost the plan against the
// source's cards one constraint at a time and never ask for the whole
// CardStats snapshot, which only Engine.CardStats (/stats) builds.
func TestPlanningBuildsNoStatisticsSnapshot(t *testing.T) {
	ls, _ := fixedGroupScene(t)
	src := &countingSource{Source: liveSource{ls}}
	e := assemble(ls.Catalog(), src, Options{})
	p, err := e.Prepare(fixedGroupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Plan().Tier; got != plan.TierOptimized {
		t.Fatalf("cold prepare tier = %q, want optimized", got)
	}
	if hit, err := e.Prepare(fixedGroupQuery); err != nil || hit != p {
		t.Fatalf("the repeated prepare did not hit the cached plan (err %v)", err)
	}
	if n := src.snapshots.Load(); n != 0 {
		t.Errorf("planning built %d statistics snapshots, want none", n)
	}
	if cs := e.CardStats(); len(cs.ACs) != 1 || src.snapshots.Load() != 1 {
		t.Errorf("Engine.CardStats: %d constraints, %d snapshots; want 1 and 1", len(cs.ACs), src.snapshots.Load())
	}
}

// TestExecRaceDuringReplan hammers the plan-swap window under the race
// detector: executors prepare and run a fixed-answer query in a loop
// while an ingester drifts the statistics of other groups, forcing
// hit-path drift re-plans. Every execution, whichever plan generation it
// lands on, must produce exactly the fixed answer set.
func TestExecRaceDuringReplan(t *testing.T) {
	ls, e := fixedGroupScene(t)

	const (
		executors = 4
		iters     = 150
	)
	var (
		execWG, ingestWG sync.WaitGroup
		mu               sync.Mutex
		failure          string
	)
	fail := func(msg string) {
		mu.Lock()
		if failure == "" {
			failure = msg
		}
		mu.Unlock()
	}
	stop := make(chan struct{})

	// Ingester: grow groups a >= 2 so cardinalities drift while plans swap.
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		// Spread over many groups and cap the volume so no group ever
		// approaches the N=100 bound.
		for i := int64(0); i < 20000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := ls.Insert("r", value.Tuple{value.Int(2 + i%997), value.Int(1000 + i)}); err != nil {
				fail("insert: " + err.Error())
				return
			}
		}
	}()

	for g := 0; g < executors; g++ {
		execWG.Add(1)
		go func() {
			defer execWG.Done()
			for i := 0; i < iters; i++ {
				prep, err := e.Prepare(fixedGroupQuery)
				if err != nil {
					fail("prepare: " + err.Error())
					return
				}
				res, err := prep.Exec()
				if err != nil {
					fail("exec: " + err.Error())
					return
				}
				if len(res.Tuples) != 2 || res.Tuples[0][0] != value.Int(10) || res.Tuples[1][0] != value.Int(11) {
					fail("unexpected answers for a=1: " + res.Tuples[0].String())
					return
				}
			}
		}()
	}

	execWG.Wait()
	close(stop)
	ingestWG.Wait()

	if failure != "" {
		t.Fatal(failure)
	}
	// After the dust settles the live plan still answers correctly.
	prep, err := e.Prepare(fixedGroupQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 2 {
		t.Fatalf("final answers = %v, want exactly (10) and (11)", res.Tuples)
	}
}
