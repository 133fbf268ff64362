package plan

import (
	"strings"
	"testing"

	"bcq/internal/core"
	"bcq/internal/schema"
	"bcq/internal/spc"
)

func socialCatalog() *schema.Catalog {
	return schema.MustCatalog(
		schema.MustRelation("in_album", "photo_id", "album_id"),
		schema.MustRelation("friends", "user_id", "friend_id"),
		schema.MustRelation("tagging", "photo_id", "tagger_id", "taggee_id"),
	)
}

func accessA0() *schema.AccessSchema {
	return schema.MustAccessSchema(
		schema.MustAccessConstraint("in_album", []string{"album_id"}, []string{"photo_id"}, 1000),
		schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000),
		schema.MustAccessConstraint("tagging", []string{"photo_id", "taggee_id"}, []string{"tagger_id"}, 1),
	)
}

const q0src = `
	query Q0:
	select t1.photo_id
	from in_album as t1, friends as t2, tagging as t3
	where t1.album_id = 'a0' and t2.user_id = 'u0'
	  and t1.photo_id = t3.photo_id
	  and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id
`

func q0Plan(t *testing.T) *Plan {
	t.Helper()
	cat := socialCatalog()
	an, err := core.NewAnalysis(cat, spc.MustParse(q0src, cat), accessA0())
	if err != nil {
		t.Fatal(err)
	}
	p, err := QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQPlanQ0Shape(t *testing.T) {
	p := q0Plan(t)
	// Two seeds: a0 and u0 (taggee/user share a class).
	if len(p.Seeds) != 2 {
		t.Errorf("seeds = %d, want 2", len(p.Seeds))
	}
	// Example 10 fetches via in_album(aid), friends(uid) and
	// tagging(pid, tid2): at most 3 fetch steps (the tagging step may fold
	// into verification when tagger is also deducible).
	if len(p.Steps) == 0 || len(p.Steps) > 3 {
		t.Errorf("steps = %d, want 1..3", len(p.Steps))
	}
	if len(p.Verifies) != 3 {
		t.Errorf("verify steps = %d, want 3 (one per atom)", len(p.Verifies))
	}
	if p.FetchBound.IsUnbounded() {
		t.Fatal("unbounded plan")
	}
	// Example 1's budget analysis: ~7000 tuples; our accounting differs
	// slightly (verification bounds multiply by candidate combinations) but
	// must stay well clear of |D|-dependent figures and must exceed 1000
	// (the album fetch alone).
	if p.FetchBound.Int64() < 1000 {
		t.Errorf("FetchBound = %v, implausibly small", p.FetchBound)
	}
}

func TestQPlanQ0BudgetMatchesExample1(t *testing.T) {
	// Example 1's walkthrough: 1000 (T1, album photos) + 5000 (T2, friends)
	// + 1000 (T3, taggings for the album's photos) = 7000 tuples. The
	// generated plan reproduces the budget exactly.
	p := q0Plan(t)
	if p.FetchBound.IsUnbounded() || p.FetchBound.Int64() != 7000 {
		t.Errorf("FetchBound = %v, want exactly 7000 (Example 1):\n%s", p.FetchBound, p.Explain())
	}
}

func TestQPlanNotEffectivelyBounded(t *testing.T) {
	cat := socialCatalog()
	q := spc.MustParse("select photo_id from in_album", cat)
	an, err := core.NewAnalysis(cat, q, accessA0())
	if err != nil {
		t.Fatal(err)
	}
	_, err = QPlan(an)
	if err == nil {
		t.Fatal("expected NotEffectivelyBoundedError")
	}
	var nebe *NotEffectivelyBoundedError
	if !strings.Contains(err.Error(), "plan:") {
		t.Errorf("error text = %q", err)
	}
	if ok := errorsAs(err, &nebe); !ok {
		t.Errorf("error type = %T", err)
	}
}

// errorsAs is a tiny local wrapper to avoid importing errors just for one
// assertion.
func errorsAs(err error, target **NotEffectivelyBoundedError) bool {
	e, ok := err.(*NotEffectivelyBoundedError)
	if ok {
		*target = e
	}
	return ok
}

func TestQPlanStepOrderRespectsDependencies(t *testing.T) {
	// Chained deduction x -> y -> z: the step fetching z must come after
	// the step fetching y.
	cat := schema.MustCatalog(schema.MustRelation("r", "x", "y", "z"))
	// The only route to z chains (x)->(y,3) then (y)->(z,4); the
	// (x,z)->(y,1) constraint provides the indexedness witness for
	// X^1_Q = {x, z} but cannot fire before z is covered.
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 3),
		schema.MustAccessConstraint("r", []string{"y"}, []string{"z"}, 4),
		schema.MustAccessConstraint("r", []string{"x", "z"}, []string{"y"}, 1),
	)
	q := spc.MustParse("select z from r where x = 1", cat)
	an, err := core.NewAnalysis(cat, q, acc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d, want 2 (chained):\n%s", len(p.Steps), p.Explain())
	}
	if p.Steps[0].AC.N != 3 || p.Steps[1].AC.N != 4 {
		t.Errorf("step order = %v then %v", p.Steps[0].AC, p.Steps[1].AC)
	}
}

func TestQPlanPrunesUselessSteps(t *testing.T) {
	// A constraint whose Y classes are never needed must not become a
	// fetch step.
	cat := schema.MustCatalog(schema.MustRelation("r", "x", "y", "junk"))
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"x"}, []string{"y"}, 3),
		schema.MustAccessConstraint("r", []string{"x"}, []string{"junk"}, 50),
		schema.MustAccessConstraint("r", []string{"x", "y"}, []string{"junk"}, 1),
	)
	q := spc.MustParse("select y from r where x = 1", cat)
	an, err := core.NewAnalysis(cat, q, acc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range p.Steps {
		for _, attr := range st.AC.Y {
			if attr == "junk" {
				t.Errorf("useless junk fetch kept: %v", st.AC)
			}
		}
	}
	if len(p.Steps) != 1 {
		t.Errorf("steps = %d, want 1", len(p.Steps))
	}
}

func TestExplainMentionsEverything(t *testing.T) {
	p := q0Plan(t)
	out := p.Explain()
	for _, want := range []string{"plan for Q0", "seed:", "fetch T1", "verify", "π(photo_id)", "worst-case"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestExplainTrivial(t *testing.T) {
	cat := socialCatalog()
	q := spc.MustParse("select photo_id from in_album where album_id = 1 and album_id = 2", cat)
	an, err := core.NewAnalysis(cat, q, accessA0())
	if err != nil {
		t.Fatal(err)
	}
	p, err := QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "trivial") {
		t.Error("trivial plan not explained as such")
	}
}

func TestQPlanBooleanNoOutput(t *testing.T) {
	cat := socialCatalog()
	q := spc.MustParse("select exists from friends where friends.user_id = 'u0'", cat)
	an, err := core.NewAnalysis(cat, q, accessA0())
	if err != nil {
		t.Fatal(err)
	}
	p, err := QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.OutputClasses) != 0 {
		t.Errorf("Boolean plan has output classes: %v", p.OutputClasses)
	}
	if !strings.Contains(p.Explain(), "output: exists") {
		t.Error("Boolean plan explain")
	}
}

// ordersQ6 is a six-atom query over a schema with two constraints per
// relation: enough acts for the branch-and-bound search to expand
// hundreds of nodes.
func ordersQ6(t *testing.T) *core.Analysis {
	t.Helper()
	cat := schema.MustCatalog(
		schema.MustRelation("users", "uid", "region", "tier", "name"),
		schema.MustRelation("orders", "oid", "uid", "day", "item"),
		schema.MustRelation("items", "item", "cat", "flag"),
	)
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("users", []string{"region"}, []string{"uid", "tier"}, 50),
		schema.MustAccessConstraint("users", []string{"tier"}, []string{"uid", "region"}, 10000),
		schema.MustAccessConstraint("orders", []string{"uid"}, []string{"oid", "day", "item"}, 100),
		schema.MustAccessConstraint("orders", []string{"day"}, []string{"oid", "uid", "item"}, 500),
		schema.MustAccessConstraint("items", []string{"item"}, []string{"cat", "flag"}, 5),
	)
	q := spc.MustParse(`
		select t2.oid, t3.cat, t5.oid, t6.cat
		from users as t1, orders as t2, items as t3, users as t4, orders as t5, items as t6
		where t1.region = 'r1' and t1.tier = 55 and t1.uid = t2.uid and t2.item = t3.item
		  and t4.tier = 55 and t4.uid = t5.uid and t5.item = t6.item`, cat)
	an, err := core.NewAnalysis(cat, q, acc)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

// TestCostSearchAllocatesNothingPerNode pins the cost model's contract:
// one estimate allocates nothing, and a whole ordering search — however
// many nodes the branch-and-bound expands — allocates only its fixed
// handful of result and scratch slices.
func TestCostSearchAllocatesNothingPerNode(t *testing.T) {
	est := []float64{3, 5, 7}
	x := []int{2, 0, 2} // a repeated class counts once
	var lookups, fetch float64
	if n := testing.AllocsPerRun(100, func() {
		lookups, fetch = stepEst(est, x, acShape{avg: 2, entries: 30})
	}); n != 0 {
		t.Errorf("stepEst allocates %v times per call, want 0", n)
	}
	if lookups != 21 || fetch != 30 {
		t.Errorf("stepEst = %v lookups, %v fetched; want 21 (7·3, the repeat skipped) and 30 (42 capped at the entries)", lookups, fetch)
	}

	an := ordersQ6(t)
	c, err := check(an)
	if err != nil {
		t.Fatal(err)
	}
	m := newCostModel(an, nil)
	s := &search{m: m, best: 1e300, budget: searchNodeBudget,
		seq: make([]int, 0, len(m.acts)), used: make([]bool, len(m.acts)), undo: make([]int, 0, len(m.est))}
	m.reset()
	s.dfs(0)
	if s.nodes < 50 {
		t.Fatalf("the search expanded %d nodes: too few to tell per-node allocation from set-up", s.nodes)
	}
	n := testing.AllocsPerRun(20, func() { m.searchOrder(c.eb, true) })
	t.Logf("ordering search: %d nodes, %v allocations", s.nodes, n)
	if n > 8 {
		t.Errorf("an ordering search over %d nodes allocates %v times, want a fixed handful (≤ 8)", s.nodes, n)
	}
}
