// Benchmarks regenerating every table and figure of the paper's Section 6
// (see DESIGN.md §3 for the experiment index). Each BenchmarkFig5* runs one
// panel of Figure 5 and reports the headline series as custom metrics:
//
//	evalDQ_ms_max    — evalDQ mean wall time at the largest x (flat in |D|)
//	baseline_ms_max  — baseline mean wall time at the largest finished x
//	DQ_tuples        — mean |D_Q| at the largest x (independent of |D|)
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// and add -v to also print the rendered panels. cmd/bqexp produces the
// same data as standalone tables/CSV.
package bcq

import (
	"bytes"
	"testing"

	"bcq/internal/core"
	"bcq/internal/datagen"
	"bcq/internal/exec"
	"bcq/internal/experiments"
	"bcq/internal/plan"
	"bcq/internal/querygen"
)

// benchConfig balances fidelity (the paper's 2⁻⁵…1 scale sweep) against
// bench wall time.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scales = []float64{1.0 / 32, 1.0 / 8, 1.0 / 2, 1}
	cfg.FixedScale = 1.0 / 2
	cfg.Budget = 1_000_000
	return cfg
}

type panelFn func(*datagen.Dataset, experiments.Config) (experiments.Panel, error)

func benchPanel(b *testing.B, mk func() *datagen.Dataset, fn panelFn) {
	b.Helper()
	cfg := benchConfig()
	var panel experiments.Panel
	for i := 0; i < b.N; i++ {
		var err error
		panel, err = fn(mk(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(panel.Points) == 0 {
		b.Fatal("empty panel")
	}
	last := panel.Points[len(panel.Points)-1]
	b.ReportMetric(last.EvalMS, "evalDQ_ms_max")
	b.ReportMetric(last.DQ, "DQ_tuples")
	// The baseline's last finished point (it may DNF at the largest x).
	for i := len(panel.Points) - 1; i >= 0; i-- {
		if !panel.Points[i].DNF {
			b.ReportMetric(panel.Points[i].BaseMS, "baseline_ms_max")
			break
		}
	}
	var buf bytes.Buffer
	experiments.RenderPanel(&buf, panel)
	b.Log("\n" + buf.String())
}

// --- Figure 5, panels (a)–(l) ---

func BenchmarkFig5a_TFACC_VaryD(b *testing.B) { benchPanel(b, datagen.TFACC, experiments.Fig5VaryD) }
func BenchmarkFig5b_TFACC_VaryA(b *testing.B) { benchPanel(b, datagen.TFACC, experiments.Fig5VaryA) }
func BenchmarkFig5c_TFACC_VarySel(b *testing.B) {
	benchPanel(b, datagen.TFACC, experiments.Fig5VarySel)
}
func BenchmarkFig5d_TFACC_VaryProd(b *testing.B) {
	benchPanel(b, datagen.TFACC, experiments.Fig5VaryProd)
}
func BenchmarkFig5e_MOT_VaryD(b *testing.B) { benchPanel(b, datagen.MOT, experiments.Fig5VaryD) }
func BenchmarkFig5f_MOT_VaryA(b *testing.B) { benchPanel(b, datagen.MOT, experiments.Fig5VaryA) }
func BenchmarkFig5g_MOT_VarySel(b *testing.B) {
	benchPanel(b, datagen.MOT, experiments.Fig5VarySel)
}
func BenchmarkFig5h_MOT_VaryProd(b *testing.B) {
	benchPanel(b, datagen.MOT, experiments.Fig5VaryProd)
}
func BenchmarkFig5i_TPCH_VaryD(b *testing.B) { benchPanel(b, datagen.TPCH, experiments.Fig5VaryD) }
func BenchmarkFig5j_TPCH_VaryA(b *testing.B) { benchPanel(b, datagen.TPCH, experiments.Fig5VaryA) }
func BenchmarkFig5k_TPCH_VarySel(b *testing.B) {
	benchPanel(b, datagen.TPCH, experiments.Fig5VarySel)
}
func BenchmarkFig5l_TPCH_VaryProd(b *testing.B) {
	benchPanel(b, datagen.TPCH, experiments.Fig5VaryProd)
}

// --- Table 1: algorithm elapsed times ---

func benchTable1(b *testing.B, mk func() *datagen.Dataset) {
	b.Helper()
	cfg := benchConfig()
	var row experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = experiments.Table1(mk(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(row.BCheck.Microseconds()), "BCheck_µs_max")
	b.ReportMetric(float64(row.EBCheck.Microseconds()), "EBCheck_µs_max")
	b.ReportMetric(float64(row.FindDPh.Microseconds()), "findDPh_µs_max")
	b.ReportMetric(float64(row.QPlan.Microseconds()), "QPlan_µs_max")
}

func BenchmarkTable1_TFACC(b *testing.B) { benchTable1(b, datagen.TFACC) }
func BenchmarkTable1_MOT(b *testing.B)   { benchTable1(b, datagen.MOT) }
func BenchmarkTable1_TPCH(b *testing.B)  { benchTable1(b, datagen.TPCH) }

// --- Table 2: complexity scaling (PTIME checkers vs exponential exact) ---

func BenchmarkTable2_Scaling(b *testing.B) {
	var points []experiments.Table2Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Table2Scaling([]int{2, 4, 6, 8, 10}, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := points[len(points)-1]
	b.ReportMetric(last.CheckerNS, "EBCheck_ns_at_max")
	b.ReportMetric(last.ExactNS, "exactMDP_ns_at_max")
	var buf bytes.Buffer
	experiments.RenderTable2(&buf, points)
	b.Log("\n" + buf.String())
}

// --- Prepared-query engine: plan cache vs cold pipeline ---

// BenchmarkEngine_PreparedVsCold measures what the plan cache buys on the
// serving path: "cold" re-runs analyze→QPlan→evalDQ from scratch per
// request (the pre-engine pipeline), "prepare" goes through the engine's
// fingerprint + cache-hit path per request, and "exec" holds the Prepared
// and only executes. The spread between cold and exec is the per-request
// analysis cost the engine removes.
func BenchmarkEngine_PreparedVsCold(b *testing.B) {
	ds := datagen.TFACC()
	ws, err := querygen.Workload(ds, querygen.Seed)
	if err != nil {
		b.Fatal(err)
	}
	db := ds.MustBuild(1.0 / 8)
	eng, err := NewEngine(ds.Catalog, ds.Access, db, EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// The first effectively bounded workload query stands in for the hot
	// query of a service.
	var hot *Query
	for _, w := range ws {
		if _, err := eng.PrepareQuery(w.Query); err == nil {
			hot = w.Query
			break
		}
	}
	if hot == nil {
		b.Fatal("no effectively bounded workload query")
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			an, err := core.NewAnalysis(ds.Catalog, hot, ds.Access)
			if err != nil {
				b.Fatal(err)
			}
			p, err := plan.QPlan(an)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := exec.Run(p, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := eng.PrepareQuery(hot)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exec", func(b *testing.B) {
		p, err := eng.PrepareQuery(hot)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := p.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
	st := eng.Stats()
	b.Logf("engine stats after benchmark: %+v (plans for the hot query: 1)", st)
}

// --- Exp-1: effectively bounded census ---

func BenchmarkExp1_Census(b *testing.B) {
	cfg := benchConfig()
	total, eb := 0, 0
	for i := 0; i < b.N; i++ {
		total, eb = 0, 0
		for _, mk := range []func() *datagen.Dataset{datagen.TFACC, datagen.MOT, datagen.TPCH} {
			c, err := experiments.Census(mk(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			total += c.Total
			eb += c.EffectivelyBounded
		}
	}
	b.ReportMetric(float64(eb), "effectively_bounded")
	b.ReportMetric(float64(total), "queries")
	b.Logf("census: %d/%d effectively bounded (paper: 35/45)", eb, total)
}
