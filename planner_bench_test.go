// BenchmarkPlanner is the cost-based-optimizer guardrail: it compares
// end-to-end bounded-evaluation latency of the naive (derivation-order)
// plan against the cost-ordered plan on the testdata orders scene, where
// declared bounds mislead, and reports the planning overhead itself.
// CI runs it once per change; a regression shows up as the cost variant
// losing its margin over naive (or planning time exploding).
//
// TestPlannerBenchEmit measures the same planning paths once — naive,
// greedy order, full optimization — asserts by a count, not a clock, that
// the greedy order Optimize falls back to skips the search (it allocates
// strictly less per plan than the full optimizer: it never builds the
// branch-and-bound search), and, when PLANNER_BENCH_JSON names a path,
// writes the perf trajectory there; CI compares it against
// bench/BENCH_planner.json (tools/benchcmp: bytes and counts past +25%
// fail, times are reported).
//
// Emitted lower-is-better fields:
//
//	plan.naive_ns      — QPlan: derivation order, no cost model
//	plan.greedy_ns     — OptimizeGreedy: Optimize's fallback order alone
//	plan.optimize_ns   — Optimize: greedy + branch-and-bound search
//	plan.cold_prepare_ns — one engine-level cold Prepare (parse →
//	    analysis → Optimize → statistics shapes) of the 6-atom ad hoc
//	    shape BenchmarkColdPrepare runs
//	plan.cold_prepare_<shape>_allocs, plan.cold_prepare_<shape>_bytes —
//	    what one cold Prepare of each of its 3-, 4- and 6-atom shapes
//	    allocates, in objects and in bytes
//
// plan.greedy_allocs and plan.optimize_allocs are the allocations per
// plan the assertion compares; tools/benchcmp holds them and the cold
// prepare's counts and bytes to the committed baseline.
//
// The fetched counts (no checked suffix, informational) record that the
// greedy order's fetch volume sits between naive and optimized on Q3.
package bcq

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

func BenchmarkPlanner(b *testing.B) {
	cat, acc, db := ordersScene(b)
	if err := db.EnsureIndexes(acc); err != nil {
		b.Fatal(err)
	}
	cs := db.CardStats()
	q := readQuery(b, "testdata/q3.sql", cat)
	a, err := Analyze(cat, q, acc)
	if err != nil {
		b.Fatal(err)
	}
	naive, err := a.Plan()
	if err != nil {
		b.Fatal(err)
	}
	opt, err := a.OptimizedPlan(&cs)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("exec/naive", func(b *testing.B) {
		var fetched int64
		for i := 0; i < b.N; i++ {
			res, err := Execute(naive, db)
			if err != nil {
				b.Fatal(err)
			}
			fetched = res.Stats.TuplesFetched
		}
		b.ReportMetric(float64(fetched), "tuples_fetched")
	})
	b.Run("exec/cost", func(b *testing.B) {
		var fetched int64
		for i := 0; i < b.N; i++ {
			res, err := Execute(opt, db)
			if err != nil {
				b.Fatal(err)
			}
			fetched = res.Stats.TuplesFetched
		}
		b.ReportMetric(float64(fetched), "tuples_fetched")
	})
	b.Run("plan/naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.Plan(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan/greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.GreedyPlan(&cs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan/cost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.OptimizedPlan(&cs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestPlannerBenchEmit(t *testing.T) {
	cat, acc, db := ordersScene(t)
	if err := db.EnsureIndexes(acc); err != nil {
		t.Fatal(err)
	}
	cs := db.CardStats()
	// Planning latency is measured on the 6-atom Q6, where the
	// branch-and-bound search space is real; fetch volumes are recorded
	// on the canonical Q3 scene so the trajectory stays comparable with
	// BenchmarkPlanner.
	q := readQuery(t, "testdata/q6.sql", cat)
	a, err := Analyze(cat, q, acc)
	if err != nil {
		t.Fatal(err)
	}

	// Min-of-rounds keeps the per-op numbers stable on a noisy machine.
	const (
		rounds = 5
		iters  = 200
	)
	measure := func(f func() error) int64 {
		t.Helper()
		best := int64(0)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			}
			ns := time.Since(start).Nanoseconds() / iters
			if best == 0 || ns < best {
				best = ns
			}
		}
		return best
	}
	greedyPlan := func() error { _, err := a.GreedyPlan(&cs); return err }
	optPlan := func() error { _, err := a.OptimizedPlan(&cs); return err }
	naiveNS := measure(func() error { _, err := a.Plan(); return err })
	greedyNS := measure(greedyPlan)
	optNS := measure(optPlan)
	allocs := func(f func() error) int64 {
		t.Helper()
		return int64(testing.AllocsPerRun(iters, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	greedyAllocs, optAllocs := allocs(greedyPlan), allocs(optPlan)

	// The whole cold path at engine level, as BenchmarkColdPrepare runs it,
	// every Prepare a miss: timed on the 6-atom shape, counted on each.
	var coldNS int64
	cold := map[string]int64{}
	for _, shape := range coldPrepareShapes {
		prepare := coldPrepares(t, shape.file)
		if shape.name == "6atoms" {
			coldNS = measure(prepare)
		}
		cold[shape.name+"_allocs"] = allocs(prepare)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < iters; i++ {
			if err := prepare(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		cold[shape.name+"_bytes"] = int64(after.TotalAlloc-before.TotalAlloc) / iters
	}

	// The fallback order is a strict subset of Optimize's work — no
	// branch-and-bound search, so none of the search's state. A count says
	// so on any machine; the times beside it are reported.
	if greedyAllocs >= optAllocs {
		t.Errorf("greedy order allocates %d times per plan, full optimizer %d — greedy must skip the search", greedyAllocs, optAllocs)
	}

	// Fetch volumes across planners on Q3, for the emitted record.
	a, err = Analyze(cat, readQuery(t, "testdata/q3.sql", cat), acc)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := a.Plan()
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := a.GreedyPlan(&cs)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := a.OptimizedPlan(&cs)
	if err != nil {
		t.Fatal(err)
	}
	fetched := func(p *Plan) int64 {
		t.Helper()
		res, err := Execute(p, db)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.TuplesFetched
	}
	naiveF, greedyF, optF := fetched(naive), fetched(greedy), fetched(opt)
	if optF > greedyF {
		t.Errorf("optimized plan fetched %d > greedy order %d on q3", optF, greedyF)
	}

	t.Logf("plan: naive %s, greedy %s (%d allocs), optimize %s (%d allocs); cold prepare %s, %v; fetched: naive %d, greedy %d, optimized %d",
		time.Duration(naiveNS), time.Duration(greedyNS), greedyAllocs, time.Duration(optNS), optAllocs, time.Duration(coldNS), cold, naiveF, greedyF, optF)

	if path := os.Getenv("PLANNER_BENCH_JSON"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		doc := map[string]map[string]int64{
			"plan": {
				"naive_ns":        naiveNS,
				"greedy_ns":       greedyNS,
				"optimize_ns":     optNS,
				"greedy_allocs":   greedyAllocs,
				"optimize_allocs": optAllocs,
				"cold_prepare_ns": coldNS,
			},
			"exec": {
				"naive_fetched":     naiveF,
				"greedy_fetched":    greedyF,
				"optimized_fetched": optF,
			},
		}
		for k, v := range cold {
			doc["plan"]["cold_prepare_"+k] = v
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
