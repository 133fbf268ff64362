// Overhead guardrail for the observability layer: the same workload runs
// on two engines over the same data — one bare, one with a full metrics
// registry, traced prepares and slow-log-armed execution paths disabled
// only by nil checks — and the enabled median must stay within 5% of the
// bare one. That budget is the package contract internal/obs documents;
// this test is the thing that keeps it honest.
//
//	go test -run TestObsOverhead -v
//	go test -bench BenchmarkObsOverhead -benchmem
//
// With OBS_BENCH_JSON set, the measurements are written there
// (BENCH_obs.json in CI) so the overhead trajectory records.
package bcq

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"bcq/internal/obs"
)

// obsScene builds the fan-out scene on an engine with or without a
// metrics registry. The query fans 200 groups × 20 rows, so one
// execution issues hundreds of probes — enough work that per-probe
// instrumentation cost would show, not vanish in noise.
func obsScene(tb testing.TB, reg *obs.Registry) *Prepared {
	tb.Helper()
	cat, acc, err := ParseDDL(streamBenchDDL)
	if err != nil {
		tb.Fatal(err)
	}
	db := NewDatabase(cat)
	for s := 0; s < 200; s++ {
		for d := 0; d < 20; d++ {
			if err := db.Insert("edge", Tuple{Int(int64(s)), Int(int64(d))}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	eng, err := NewEngine(cat, acc, db, EngineOptions{Metrics: reg})
	if err != nil {
		tb.Fatal(err)
	}
	q, err := ParseQuery(streamBenchQuery, cat)
	if err != nil {
		tb.Fatal(err)
	}
	prep, err := eng.PrepareQuery(q)
	if err != nil {
		tb.Fatal(err)
	}
	return prep
}

// execNS times one execution in nanoseconds.
func execNS(tb testing.TB, prep *Prepared) float64 {
	tb.Helper()
	start := time.Now()
	res, err := prep.Exec()
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Tuples) != 200*20 {
		tb.Fatalf("answer size %d, want %d", len(res.Tuples), 200*20)
	}
	return float64(time.Since(start).Nanoseconds())
}

// pairedMedians times reps executions on each engine, alternating the two
// execution by execution — and which of them goes first — so that drift
// and a busy machine hit both alike, and returns each engine's median wall
// time of one execution. The collector runs between executions, not during
// them: an execution is short enough that whether a collection lands in it
// would otherwise decide the sample.
func pairedMedians(tb testing.TB, bare, instr *Prepared, reps int) (bareNS, instrNS float64) {
	tb.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	bs := make([]float64, 0, reps)
	is := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if r%16 == 0 {
			runtime.GC()
		}
		if r%2 == 0 {
			bs = append(bs, execNS(tb, bare))
			is = append(is, execNS(tb, instr))
		} else {
			is = append(is, execNS(tb, instr))
			bs = append(bs, execNS(tb, bare))
		}
	}
	sort.Float64s(bs)
	sort.Float64s(is)
	return bs[reps/2], is[reps/2]
}

// TestObsOverhead is the guardrail: with a registry registered on the
// engine (every executor counter, histogram and shard-probe handle
// live), the median execution must stay within 5% of the uninstrumented
// engine. Medians over executions interleaved one by one absorb scheduler
// noise; a second, larger round confirms before failing.
func TestObsOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guardrail; skipped in -short")
	}
	bare := obsScene(t, nil)
	reg := obs.NewRegistry()
	instr := obsScene(t, reg)
	// The retention tier rides along: a sampler ticking far faster than
	// production (10ms vs 5s) collects the registry throughout the
	// measurement, so the 5% budget covers metrics AND time-series
	// retention together.
	ts := obs.NewTimeSeries(reg, obs.TimeSeriesOptions{Interval: 10 * time.Millisecond, Window: 64})
	ts.Start()
	defer ts.Stop()

	bareNS, instrNS := pairedMedians(t, bare, instr, 100)
	overhead := instrNS/bareNS - 1
	if overhead > 0.05 {
		// One confirmation round with more samples before declaring a
		// regression — CI machines are noisy at microsecond scales.
		bareNS, instrNS = pairedMedians(t, bare, instr, 300)
		overhead = instrNS/bareNS - 1
	}
	t.Logf("bare %.0fns, instrumented %.0fns: overhead %+.2f%%", bareNS, instrNS, overhead*100)
	if overhead > 0.05 {
		t.Errorf("instrumented execution is %.2f%% slower than bare (budget 5%%)", overhead*100)
	}

	if path := os.Getenv("OBS_BENCH_JSON"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			BareNS      float64 `json:"bare_ns"`
			InstrNS     float64 `json:"instrumented_ns"`
			OverheadPct float64 `json:"overhead_pct"`
			BudgetPct   float64 `json:"budget_pct"`
		}{bareNS, instrNS, overhead * 100, 5}); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}

// BenchmarkObsOverhead is the same comparison as a benchmark pair for
// interactive use: -bench BenchmarkObsOverhead prints both modes side by
// side.
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"disabled", nil},
		{"enabled", obs.NewRegistry()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			prep := obsScene(b, mode.reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := prep.Exec(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsInstruments pins the per-call cost of the primitives the
// hot paths lean on: counter increments, histogram observations and the
// disabled-mode nil-check.
func BenchmarkObsInstruments(b *testing.B) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("bench_total", "")
	hist := reg.Histogram("bench_seconds", "", obs.LatencyBuckets)
	var nilCtr *obs.Counter
	var nilHist *obs.Histogram
	b.Run("counter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctr.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hist.Observe(0.0042)
		}
	})
	b.Run("counter-nil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nilCtr.Inc()
		}
	})
	b.Run("histogram-nil", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nilHist.Observe(0.0042)
		}
	})
}
