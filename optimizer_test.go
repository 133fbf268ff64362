// Acceptance tests for the cost-based plan optimizer: on multi-relation
// testdata queries whose declared bounds mislead, the cost-ordered plan
// must fetch measurably fewer tuples than the naive derivation order
// while returning byte-identical answers — and a live engine must
// re-plan, without restart, when ingested data drifts the observed
// cardinalities past the threshold.
package bcq

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// ordersScene loads testdata/orders.ddl with its deterministic data:
// 4 regions × 50 users (dense region groups at the declared bound),
// tier = uid mod 100 (2 users per tier, declared bound 10000), 5 orders
// per user, 20 items.
func ordersScene(t testing.TB) (*Catalog, *AccessSchema, *Database) {
	t.Helper()
	src, err := os.ReadFile("testdata/orders.ddl")
	if err != nil {
		t.Fatal(err)
	}
	cat, acc, err := ParseDDL(string(src))
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(cat)
	ins := func(rel string, tu Tuple) {
		t.Helper()
		if err := db.Insert(rel, tu); err != nil {
			t.Fatal(err)
		}
	}
	for uid := 0; uid < 200; uid++ {
		ins("users", Tuple{Int(int64(uid)), Str(fmt.Sprintf("r%d", uid/50)),
			Int(int64(uid % 100)), Str(fmt.Sprintf("name%d", uid))})
		for k := 0; k < 5; k++ {
			oid := int64(uid*10 + k)
			ins("orders", Tuple{Int(oid), Int(int64(uid)), Int(oid % 30), Int(oid % 20)})
		}
	}
	for item := int64(0); item < 20; item++ {
		ins("items", Tuple{Int(item), Int(item % 5), Int(item % 2)})
	}
	return cat, acc, db
}

// readQuery parses one testdata query against a catalog.
func readQuery(t testing.TB, path string, cat *Catalog) *Query {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseQuery(string(src), cat)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestCostOrderedPlanFetchesFewerTuples is the headline acceptance
// check: on Q2 (2 relations) and Q3 (3 relations) the cost-based plan
// returns byte-identical answers to the naive plan while actually
// fetching strictly fewer tuples, because it probes the tiny observed
// tier groups instead of the dense region groups the declared bounds
// recommend.
func TestCostOrderedPlanFetchesFewerTuples(t *testing.T) {
	cat, acc, db := ordersScene(t)
	if err := db.EnsureIndexes(acc); err != nil {
		t.Fatal(err)
	}
	cs := db.CardStats()

	for _, qp := range []string{"testdata/q2.sql", "testdata/q3.sql"} {
		q := readQuery(t, qp, cat)
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
		if fmt.Sprintf("%v|%v", resN.Cols, resN.Tuples) != fmt.Sprintf("%v|%v", resO.Cols, resO.Tuples) {
			t.Fatalf("%s: answers diverged\n naive: %v\n cost:  %v", q.Name, resN.Tuples, resO.Tuples)
		}
		if len(resO.Tuples) == 0 {
			t.Fatalf("%s: expected a non-empty answer (scene bug)", q.Name)
		}
		if resO.Stats.TuplesFetched >= resN.Stats.TuplesFetched {
			t.Errorf("%s: cost-ordered plan fetched %d tuples, naive fetched %d — want strictly fewer\nnaive:\n%s\ncost:\n%s",
				q.Name, resO.Stats.TuplesFetched, resN.Stats.TuplesFetched, naive.Explain(), opt.Explain())
		} else {
			t.Logf("%s: cost-ordered fetched %d vs naive %d", q.Name, resO.Stats.TuplesFetched, resN.Stats.TuplesFetched)
		}

		// The win must come from the documented mechanism: the naive plan
		// probes regions first, the cost-based plan probes tiers.
		if x := naive.Steps[0].AC.X; len(x) != 1 || x[0] != "region" {
			t.Errorf("%s: naive first step probes %v, want [region]", q.Name, x)
		}
		if x := opt.Steps[0].AC.X; len(x) != 1 || x[0] != "tier" {
			t.Errorf("%s: cost-ordered first step probes %v, want [tier]", q.Name, x)
		}
	}
}

// TestStatsDriftTriggersReplanWithoutRestart ingests skewed data into an
// engine over a one-shard store until the observed tier cardinality drifts past the
// re-planning threshold, then observes the plan cache discard and
// rebuild the plan — same process, new fetch order, Replans counter
// advanced.
func TestStatsDriftTriggersReplanWithoutRestart(t *testing.T) {
	cat, acc, db := ordersScene(t)
	_ = cat
	ld, err := NewShardedDatabase(db, acc, ShardOptions{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewShardedEngine(ld, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("testdata/q2.sql")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)

	p1, err := eng.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	if x := p1.Plan().Steps[0].AC.X; len(x) != 1 || x[0] != "tier" {
		t.Fatalf("initial plan probes %v first, want [tier] (tier groups are tiny)", x)
	}
	res1, err := p1.Exec()
	if err != nil {
		t.Fatal(err)
	}

	// Skew the data: 60 new users per tier, spread over fresh regions so
	// the region groups stay within their declared bound of 50. Tier
	// groups grow 2 → 62 on average; region groups stay ≤ 50.
	uid := int64(10_000)
	var ops []LiveOp
	flush := func() {
		t.Helper()
		if len(ops) == 0 {
			return
		}
		if err := ld.Apply(ops); err != nil {
			t.Fatal(err)
		}
		ops = ops[:0]
	}
	for tier := int64(0); tier < 100; tier++ {
		for k := 0; k < 60; k++ {
			region := fmt.Sprintf("g%d_%d", tier, k/50)
			ops = append(ops, InsertOp("users", Tuple{Int(uid), Str(region), Int(tier), Str("skew")}))
			uid++
			if len(ops) == 512 {
				flush()
			}
		}
	}
	flush()

	p2, err := eng.Prepare(text)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Replans; got == 0 {
		t.Fatalf("Replans = 0 after 30× cardinality drift; plan cache never re-planned")
	}
	if p2 == p1 {
		t.Fatalf("cache returned the pre-drift plan object")
	}
	if x := p2.Plan().Steps[0].AC.X; len(x) != 1 || x[0] != "region" {
		t.Fatalf("post-drift plan probes %v first, want [region] (tier groups now dwarf region groups)\n%s",
			x, p2.Explain(nil))
	}

	// The re-planned prepared query still answers correctly (the original
	// uid-55 user is untouched by the skew inserts; new tier-55 users are
	// in g55_* regions, not r1).
	res2, err := p2.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%v", res1.Tuples) != fmt.Sprintf("%v", res2.Tuples) {
		t.Fatalf("answers changed across re-plan: %v vs %v", res1.Tuples, res2.Tuples)
	}

	// Stability: preparing again without further drift serves the cached
	// re-planned entry (no replan storm).
	before := eng.Stats().Replans
	if _, err := eng.Prepare(text); err != nil {
		t.Fatal(err)
	}
	if after := eng.Stats().Replans; after != before {
		t.Fatalf("replan storm: Replans advanced %d → %d with no drift", before, after)
	}
}

// TestExplainShowsEstimatedAndActualCounts pins the satellite fix:
// Explain must print per-step actual fetch counts when given an
// execution result, and they must match the executor's totals.
func TestExplainShowsEstimatedAndActualCounts(t *testing.T) {
	cat, acc, db := ordersScene(t)
	eng, err := NewEngine(cat, acc, db, EngineOptions{})
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
	res, err := p.Exec()
	if err != nil {
		t.Fatal(err)
	}

	if len(res.StepStats) != len(p.Plan().Steps) {
		t.Fatalf("StepStats has %d entries for %d plan steps", len(res.StepStats), len(p.Plan().Steps))
	}
	var perStep int64
	for _, s := range res.StepStats {
		perStep += s.Fetched
	}
	for _, s := range res.VerifyStats {
		perStep += s.Fetched
	}
	if perStep != res.Stats.TuplesFetched {
		t.Fatalf("per-step fetches sum to %d, result counted %d", perStep, res.Stats.TuplesFetched)
	}

	out := p.Explain(res)
	for _, want := range []string{"est ", "actual ", fmt.Sprintf("actual: %d probes, %d tuples fetched", res.Stats.IndexLookups, res.Stats.TuplesFetched)} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain with actuals missing %q:\n%s", want, out)
		}
	}
	// The tier probe fetched exactly the 2 tier-55 users.
	if !strings.Contains(out, "actual 1 probes → 2") {
		t.Errorf("Explain should show the tier step fetching 2 tuples:\n%s", out)
	}
}
