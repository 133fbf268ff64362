// End-to-end acceptance for tiered planning: an engine in PlanModeTiered
// answers the cold prepare from the greedy tier, the first reuse of the
// plan queues its background upgrade, and after the upgrade installs the
// optimized tier, executions fetch exactly what a directly-built
// optimized plan fetches — the tiered engine gives up nothing versus
// eager optimization on the plans it reuses.
package bcq

import (
	"fmt"
	"os"
	"testing"
)

func TestTieredEngineReachesOptimizedFetchCounts(t *testing.T) {
	cat, acc, db := ordersScene(t)
	if err := db.EnsureIndexes(acc); err != nil {
		t.Fatal(err)
	}
	cs := db.CardStats()
	q := readQuery(t, "testdata/q2.sql", cat)

	// Ground truth: the naive and optimized fetch volumes on Q2. The
	// optimized plan probes the tiny tier groups and fetches an order of
	// magnitude fewer tuples (12 vs 300 on this scene).
	a, err := Analyze(cat, q, acc)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := a.Plan()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := a.OptimizedPlan(&cs)
	if err != nil {
		t.Fatal(err)
	}
	resN, err := Execute(naive, db)
	if err != nil {
		t.Fatal(err)
	}
	resO, err := Execute(opt, db)
	if err != nil {
		t.Fatal(err)
	}
	if resO.Stats.TuplesFetched >= resN.Stats.TuplesFetched {
		t.Fatalf("scene no longer discriminates: optimized fetched %d, naive %d", resO.Stats.TuplesFetched, resN.Stats.TuplesFetched)
	}

	eng, err := NewEngine(cat, acc, db, EngineOptions{PlanMode: PlanModeTiered})
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("testdata/q2.sql")
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.Prepare(string(src))
	if err != nil {
		t.Fatal(err)
	}
	// Nothing is upgraded before the plan is reused: the cold execution
	// runs the greedy tier.
	cold, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	eng.DrainUpgrades()
	if got := p.PlanTier(); got != TierGreedy {
		t.Fatalf("tier before any reuse = %q, want greedy", got)
	}

	again, err := eng.Prepare(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if again != p {
		t.Fatal("the repeated prepare did not hit the cached plan")
	}
	eng.DrainUpgrades()
	if got := p.PlanTier(); got != TierOptimized {
		t.Fatalf("post-upgrade tier = %q, want optimized", got)
	}
	if st := eng.Stats(); st.Upgrades != 1 || st.UpgradesPending != 0 {
		t.Fatalf("stats = %d upgrades, %d pending, want 1 installed and none pending", st.Upgrades, st.UpgradesPending)
	}

	warm, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v|%v", cold.Cols, cold.Tuples) != fmt.Sprintf("%v|%v", warm.Cols, warm.Tuples) {
		t.Fatalf("answers changed across the upgrade:\n cold: %v\n warm: %v", cold.Tuples, warm.Tuples)
	}
	// The installed plan fetches exactly what eager optimization fetches.
	if warm.Stats.TuplesFetched != resO.Stats.TuplesFetched {
		t.Errorf("post-upgrade execution fetched %d tuples, direct optimized plan fetched %d",
			warm.Stats.TuplesFetched, resO.Stats.TuplesFetched)
	}
	t.Logf("q2: naive %d, optimized %d, tiered-after-upgrade %d tuples fetched",
		resN.Stats.TuplesFetched, resO.Stats.TuplesFetched, warm.Stats.TuplesFetched)
}
