// Planning on the declared bounds alone, measured. plan.Optimize costed
// on a nil statistics snapshot plans on the paper's declared bounds N;
// costed on the store's cardinality cards it plans on observed group
// sizes. On the datagen workloads the cards fetch strictly less, so the
// statistics stay (DESIGN §9 records the per-dataset table).
package bcq

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"bcq/internal/datagen"
	"bcq/internal/plan"
	"bcq/internal/querygen"
)

// quarterScaleDBs holds each datagen dataset built at scale 0.25, built
// once per test binary and shared by the planner comparisons that run at
// that size. The databases are sealed and only read.
var quarterScaleDBs = struct {
	sync.Mutex
	dbs map[string]*Database
}{dbs: map[string]*Database{}}

func quarterScaleDB(t *testing.T, ds *datagen.Dataset) *Database {
	t.Helper()
	quarterScaleDBs.Lock()
	defer quarterScaleDBs.Unlock()
	if db, ok := quarterScaleDBs.dbs[ds.Name]; ok {
		return db
	}
	db, err := ds.Build(0.25)
	if err != nil {
		t.Fatal(err)
	}
	quarterScaleDBs.dbs[ds.Name] = db
	return db
}

// datagenWorkloads are the three schemas the shipped binaries serve.
func datagenWorkloads() []*datagen.Dataset {
	return []*datagen.Dataset{datagen.TPCH(), datagen.MOT(), datagen.TFACC()}
}

// ebQuery is one effectively bounded workload query with its analysis.
type ebQuery struct {
	q *Query
	a *Analysis
}

// ebWorkload is the dataset's querygen workload at the default seed,
// analyzed, with the queries that are not effectively bounded dropped.
func ebWorkload(t *testing.T, ds *datagen.Dataset) []ebQuery {
	t.Helper()
	ws, err := querygen.Workload(ds, querygen.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []ebQuery
	for _, w := range ws {
		a, err := Analyze(ds.Catalog, w.Query, ds.Access)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Plan(); err != nil {
			var neb *plan.NotEffectivelyBoundedError
			if errors.As(err, &neb) {
				continue
			}
			t.Fatal(err)
		}
		out = append(out, ebQuery{q: w.Query, a: a})
	}
	if len(out) == 0 {
		t.Fatalf("%s: no effectively bounded queries", ds.Name)
	}
	return out
}

// TestCardCostedPlansFetchLessThanBoundCosted: over each datagen
// workload, the plans Optimize costs on the store's cards fetch strictly
// fewer tuples in total than the plans it costs on the declared bounds,
// with identical answers. The greedy order's totals both ways are logged
// beside them. It counts tuples, never time.
func TestCardCostedPlansFetchLessThanBoundCosted(t *testing.T) {
	for _, ds := range datagenWorkloads() {
		t.Run(ds.Name, func(t *testing.T) {
			db := quarterScaleDB(t, ds)
			cs := db.CardStats()
			// run executes a plan, returning its fetch count and its answers
			// rendered for comparison.
			run := func(p *Plan, err error) (int64, string) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				res, err := Execute(p, db)
				if err != nil {
					t.Fatal(err)
				}
				return res.Stats.TuplesFetched, fmt.Sprintf("%v|%v", res.Cols, res.Tuples)
			}
			var withCards, withBounds, greedyCards, greedyBounds int64
			worse, better := 0, 0
			queries := ebWorkload(t, ds)
			for _, eq := range queries {
				fc, ac := run(eq.a.OptimizedPlan(&cs))
				fb, ab := run(eq.a.OptimizedPlan(nil))
				if ac != ab {
					t.Errorf("%s: answers differ between card- and bound-costed plans", eq.q.Name)
				}
				withCards += fc
				withBounds += fb
				switch {
				case fb > fc:
					worse++
				case fb < fc:
					better++
				}
				gc, _ := run(eq.a.GreedyPlan(&cs))
				gb, _ := run(eq.a.GreedyPlan(nil))
				greedyCards += gc
				greedyBounds += gb
			}
			t.Logf("%d queries: Optimize fetches %d on cards, %d on declared bounds (bounds worse on %d, better on %d); greedy order %d and %d",
				len(queries), withCards, withBounds, worse, better, greedyCards, greedyBounds)
			if withCards >= withBounds {
				t.Errorf("card-costed plans fetch %d tuples, bound-costed %d: the cards no longer pay for themselves", withCards, withBounds)
			}
		})
	}
}
