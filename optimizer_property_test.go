// Property test for the cost-based optimizer (run with -race in CI):
// for querygen-driven bounded CQs over the generated datasets, the
// cost-ordered plan must return byte-identical answers to the naive
// QPlan order and must never fetch more tuples — reordering and witness
// choice are performance moves, never semantic ones.
package bcq

import (
	"fmt"
	"testing"

	"bcq/internal/datagen"
	"bcq/internal/plan"
	"bcq/internal/querygen"
)

// optimizerSeeds drives query generation beyond the default workload:
// the generator is deterministic per seed, so this is a reproducible
// fuzz corpus, not a flaky one. Seeds whose workload fails to generate
// (the generator can paint itself into a corner on non-default seeds)
// are skipped.
var optimizerSeeds = []int64{querygen.Seed, 7, 1234, 99}

func TestCostOrderedNeverFetchesMoreThanNaive(t *testing.T) {
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
			cs := db.CardStats()
			checked := 0
			for _, seed := range optimizerSeeds {
				ws, err := querygen.Workload(c.ds, seed)
				if err != nil {
					if seed == querygen.Seed {
						t.Fatal(err)
					}
					continue
				}
				for _, w := range ws {
					a, err := Analyze(c.ds.Catalog, w.Query, c.ds.Access)
					if err != nil {
						t.Fatal(err)
					}
					naive, err := a.Plan()
					if err != nil {
						if _, ok := err.(*plan.NotEffectivelyBoundedError); ok {
							// The optimizer must agree on the verdict.
							if _, oerr := a.OptimizedPlan(&cs); oerr == nil {
								t.Errorf("seed %d %s: naive rejects as not EB, optimizer plans it", seed, w.Query.Name)
							}
							continue
						}
						t.Fatal(err)
					}
					opt, err := a.OptimizedPlan(&cs)
					if err != nil {
						t.Fatalf("seed %d %s: naive plans, optimizer errors: %v", seed, w.Query.Name, err)
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
						t.Errorf("seed %d %s: answers diverged\n naive: %d tuples\n cost:  %d tuples\nnaive plan:\n%s\ncost plan:\n%s",
							seed, w.Query.Name, len(resN.Tuples), len(resO.Tuples), naive.Explain(), opt.Explain())
						continue
					}
					if resO.Stats.TuplesFetched > resN.Stats.TuplesFetched {
						t.Errorf("seed %d %s: cost-ordered fetched %d > naive %d\nnaive plan:\n%s\ncost plan:\n%s",
							seed, w.Query.Name, resO.Stats.TuplesFetched, resN.Stats.TuplesFetched, naive.Explain(), opt.Explain())
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no effectively bounded queries checked")
			}
			t.Logf("checked %d (seed, query) pairs", checked)
		})
	}
}

// TestGreedyTierMatchesOptimized is the tier-equivalence sweep: over the
// same querygen corpus, the greedy order (what Optimize falls back to
// past its atom limit or node budget) must return byte-identical answers
// to both the naive and the fully optimized plan, stay within the
// declared worst-case fetch bound when it is finite, and carry the right
// tier tags — so the fallback can never change an answer, only the fetch
// count.
func TestGreedyTierMatchesOptimized(t *testing.T) {
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
			cs := db.CardStats()
			checked := 0
			for _, seed := range optimizerSeeds {
				ws, err := querygen.Workload(c.ds, seed)
				if err != nil {
					if seed == querygen.Seed {
						t.Fatal(err)
					}
					continue
				}
				for _, w := range ws {
					a, err := Analyze(c.ds.Catalog, w.Query, c.ds.Access)
					if err != nil {
						t.Fatal(err)
					}
					naive, err := a.Plan()
					if err != nil {
						if _, ok := err.(*plan.NotEffectivelyBoundedError); ok {
							// The greedy tier must agree on the EB verdict too.
							if _, gerr := a.GreedyPlan(&cs); gerr == nil {
								t.Errorf("seed %d %s: naive rejects as not EB, greedy tier plans it", seed, w.Query.Name)
							}
							continue
						}
						t.Fatal(err)
					}
					greedy, err := a.GreedyPlan(&cs)
					if err != nil {
						t.Fatalf("seed %d %s: naive plans, greedy tier errors: %v", seed, w.Query.Name, err)
					}
					opt, err := a.OptimizedPlan(&cs)
					if err != nil {
						t.Fatalf("seed %d %s: naive plans, optimizer errors: %v", seed, w.Query.Name, err)
					}
					if greedy.Tier != TierGreedy {
						t.Fatalf("seed %d %s: greedy plan tagged %q", seed, w.Query.Name, greedy.Tier)
					}
					if opt.Tier != TierOptimized {
						t.Fatalf("seed %d %s: optimized plan tagged %q", seed, w.Query.Name, opt.Tier)
					}

					resN, err := Execute(naive, db)
					if err != nil {
						t.Fatal(err)
					}
					resG, err := Execute(greedy, db)
					if err != nil {
						t.Fatal(err)
					}
					resO, err := Execute(opt, db)
					if err != nil {
						t.Fatal(err)
					}
					keyN := fmt.Sprintf("%v|%v", resN.Cols, resN.Tuples)
					if keyG := fmt.Sprintf("%v|%v", resG.Cols, resG.Tuples); keyG != keyN {
						t.Errorf("seed %d %s: greedy answers diverged from naive\ngreedy plan:\n%s", seed, w.Query.Name, greedy.Explain())
						continue
					}
					if keyO := fmt.Sprintf("%v|%v", resO.Cols, resO.Tuples); keyO != keyN {
						t.Errorf("seed %d %s: optimized answers diverged from naive", seed, w.Query.Name)
						continue
					}
					// The greedy order is still a bounded plan: its actual
					// fetch volume respects the declared worst-case bound.
					if fb := greedy.FetchBound; !fb.IsUnbounded() && resG.Stats.TuplesFetched > fb.Int64() {
						t.Errorf("seed %d %s: greedy fetched %d > declared bound %s\nplan:\n%s",
							seed, w.Query.Name, resG.Stats.TuplesFetched, fb, greedy.Explain())
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no effectively bounded queries checked")
			}
			t.Logf("checked %d (seed, query) pairs across three tiers", checked)
		})
	}
}
