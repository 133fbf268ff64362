// Command bqexp regenerates the paper's Section 6 evaluation: the twelve
// panels of Figure 5, Table 1, Table 2 and the Exp-1 census, on the
// synthetic TFACC / MOT / TPCH datasets.
//
// Usage:
//
//	bqexp                 # everything, default configuration
//	bqexp -quick          # reduced scales (CI-friendly)
//	bqexp -only fig5d     # one experiment: fig5a..fig5l, table1, table2, census
//	bqexp -csv out/       # additionally dump panel CSVs for plotting
//	bqexp -json out.json  # additionally dump all results as JSON ("-" = stdout)
//
// The -json report carries every panel point and table row in one
// machine-readable document, so CI can produce benchmark trajectory
// files (BENCH_*.json) from a bqexp run instead of transcribing the
// rendered tables by hand.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bcq/internal/datagen"
	"bcq/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced scales and budget")
	only := flag.String("only", "", "run a single experiment: fig5a..fig5l, table1, table2, census")
	csvDir := flag.String("csv", "", "directory to write panel CSVs into")
	jsonPath := flag.String("json", "", "file to write all results into as JSON (\"-\" = stdout)")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if err := run(cfg, strings.ToLower(*only), *csvDir, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "bqexp:", err)
		os.Exit(1)
	}
}

type panelSpec struct {
	id   string
	ds   func() *datagen.Dataset
	kind string // varyD, varyA, varySel, varyProd
}

var panels = []panelSpec{
	{"fig5a", datagen.TFACC, "varyD"},
	{"fig5b", datagen.TFACC, "varyA"},
	{"fig5c", datagen.TFACC, "varySel"},
	{"fig5d", datagen.TFACC, "varyProd"},
	{"fig5e", datagen.MOT, "varyD"},
	{"fig5f", datagen.MOT, "varyA"},
	{"fig5g", datagen.MOT, "varySel"},
	{"fig5h", datagen.MOT, "varyProd"},
	{"fig5i", datagen.TPCH, "varyD"},
	{"fig5j", datagen.TPCH, "varyA"},
	{"fig5k", datagen.TPCH, "varySel"},
	{"fig5l", datagen.TPCH, "varyProd"},
}

func run(cfg experiments.Config, only, csvDir, jsonPath string) error {
	var report experiments.Report
	runAll := only == ""
	for _, ps := range panels {
		if !runAll && only != ps.id {
			continue
		}
		ds := ps.ds()
		var (
			panel experiments.Panel
			err   error
		)
		switch ps.kind {
		case "varyD":
			panel, err = experiments.Fig5VaryD(ds, cfg)
		case "varyA":
			panel, err = experiments.Fig5VaryA(ds, cfg)
		case "varySel":
			panel, err = experiments.Fig5VarySel(ds, cfg)
		case "varyProd":
			panel, err = experiments.Fig5VaryProd(ds, cfg)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", ps.id, err)
		}
		panel.ID = strings.TrimPrefix(ps.id, "fig")
		experiments.RenderPanel(os.Stdout, panel)
		report.Panels = append(report.Panels, panel)
		if csvDir != "" {
			if err := writeCSV(csvDir, ps.id, panel); err != nil {
				return err
			}
		}
	}

	if runAll || only == "table1" {
		var rows []experiments.Table1Row
		for _, mk := range []func() *datagen.Dataset{datagen.TFACC, datagen.MOT, datagen.TPCH} {
			row, err := experiments.Table1(mk(), cfg)
			if err != nil {
				return err
			}
			rows = append(rows, row)
		}
		experiments.RenderTable1(os.Stdout, rows)
		report.Table1 = rows
	}

	if runAll || only == "census" {
		var rows []experiments.CensusResult
		for _, mk := range []func() *datagen.Dataset{datagen.TFACC, datagen.MOT, datagen.TPCH} {
			c, err := experiments.Census(mk(), cfg)
			if err != nil {
				return err
			}
			rows = append(rows, c)
		}
		experiments.RenderCensus(os.Stdout, rows)
		report.Census = rows
	}

	if runAll || only == "table2" {
		sizes := []int{2, 4, 6, 8, 10, 12}
		limit := 12
		points, err := experiments.Table2Scaling(sizes, limit)
		if err != nil {
			return err
		}
		experiments.RenderTable2(os.Stdout, points)
		report.Table2 = points
	}

	if jsonPath != "" && !report.Empty() {
		out := os.Stdout
		if jsonPath != "-" {
			f, err := os.Create(jsonPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := experiments.WriteJSON(out, &report); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(dir, id string, panel experiments.Panel) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	experiments.CSVPanel(f, panel)
	return nil
}
