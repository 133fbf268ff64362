// End-to-end acceptance for the engine's one planning tier: an engine's
// first, cold Prepare of a query runs the cost-based optimizer, so its
// execution fetches exactly what plan.Optimize costed on the same store's
// cards fetches — no cold prepare is served a cheaper-to-plan order.
package bcq

import (
	"fmt"
	"testing"
)

func TestColdPrepareFetchesWhatOptimizeFetches(t *testing.T) {
	for _, ds := range datagenWorkloads() {
		t.Run(ds.Name, func(t *testing.T) {
			db := quarterScaleDB(t, ds)
			cs := db.CardStats()
			eng, err := NewEngine(ds.Catalog, ds.Access, db, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			queries := ebWorkload(t, ds)
			for _, eq := range queries {
				opt, err := eq.a.OptimizedPlan(&cs)
				if err != nil {
					t.Fatal(err)
				}
				want, err := Execute(opt, db)
				if err != nil {
					t.Fatal(err)
				}
				p, err := eng.PrepareQuery(eq.q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.Exec()
				if err != nil {
					t.Fatal(err)
				}
				if got.Stats.TuplesFetched != want.Stats.TuplesFetched {
					t.Errorf("%s: cold prepare fetched %d tuples, Optimize's plan %d", eq.q.Name, got.Stats.TuplesFetched, want.Stats.TuplesFetched)
				}
				if fmt.Sprintf("%v|%v", got.Cols, got.Tuples) != fmt.Sprintf("%v|%v", want.Cols, want.Tuples) {
					t.Errorf("%s: answers differ from Optimize's plan", eq.q.Name)
				}
			}
			if st := eng.Stats(); st.CacheMisses != int64(len(queries)) || st.CacheHits != 0 {
				t.Fatalf("%d misses and %d hits over %d queries: every prepare must be a first, cold one", st.CacheMisses, st.CacheHits, len(queries))
			}
		})
	}
}
