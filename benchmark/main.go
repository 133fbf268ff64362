// Command benchmark is the repository's benchmark: four closed-loop
// serving workloads over one seeded social graph, sent in process to
// the handler of a server configured like cmd/bqserve's defaults. One
// run measures one workload and prints, as the last line of standard
// output, a JSON object with the end-to-end metrics (or, with -trace 1,
// the per-layer metrics of a traced run). README.md has the details.
//
//	go run ./benchmark -workload hot_point -seed 1 -seconds 20
//	go run ./benchmark -workload deep_scan -trace 1 -trace-out spans.jsonl
//	go run ./benchmark -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	cfg := config{users: defaultUsers, logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }}
	trace := flag.Int("trace", 0, "1 = traced run: replay every operation against the layers and report the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload as two interleaved sets of runs of this binary and compare them against the bounds in BENCHMARK.json")
	flag.StringVar(&cfg.workload, "workload", wlHotPoint, "one of hot_point, deep_scan, adhoc_shapes, ingest_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the operation sequence")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	flag.StringVar(&cfg.dataDir, "dir", filepath.Join(".bench_build", "data"), "where the durable store's directory is created (and removed); the default keeps it inside the directory the benchmark is started from")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
	flag.StringVar(&cfg.specPath, "spec", "BENCHMARK.json", "the benchmark's declaration: units, and the bounds -selfcheck holds the runs to")
	flag.Parse()
	cfg.trace = *trace != 0
	sp, err := readSpec(cfg.specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	// Two processors at most: the reference box has two, and on a larger
	// one the workloads' one or two clients would otherwise share the
	// machine with a varying number of idle processors' worth of GC.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	cfg.logf("GOMAXPROCS %d of %d processors; workload %s, seed %d, %gs, %d users", procs, runtime.NumCPU(), cfg.workload, cfg.seed, cfg.seconds, cfg.users)

	if *selfcheck {
		if err := selfCheck(cfg, sp); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printResult(cfg, sp.units(), res)
}

// printResult logs the metrics and prints the result object.
func printResult(cfg config, units map[string]string, res *result) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metric{}}
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out.Metrics[name] = metric{res.metrics[name], units[name]}
		cfg.logf("%-32s %14.4f %s", name, res.metrics[name], units[name])
	}
	cfg.logf("attempted %d, failed %d", res.attempted, res.failed)
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}
