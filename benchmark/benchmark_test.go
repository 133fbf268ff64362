package main

import (
	"hash/fnv"
	"maps"
	"math"
	"slices"
	"testing"
	"time"
)

// testUsers is the scene size the tests run at: large enough that
// hot_point's arguments do not all fit the result cache.
const testUsers = 1200

// testSeconds is the measured phase of a test run, so the tests drive the
// same timed loop and checkpoint schedule as a real run.
const testSeconds = 0.3

func testConfig(t *testing.T, workload string, seed int64, trace bool) config {
	return config{
		workload: workload, seed: seed, users: testUsers, seconds: testSeconds, trace: trace,
		dataDir: t.TempDir(), logf: t.Logf,
	}
}

// sequenceHash digests the first n operations of every client of a
// workload.
func sequenceHash(t *testing.T, workload string, seed int64, n int) uint64 {
	sc, err := newScene(testUsers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.load(seed); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for c := 0; c < clientsOf(workload); c++ {
		gen, err := newGenerator(workload, sc, seed, c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			o := gen.next()
			h.Write([]byte{byte(o.kind)})
			h.Write(o.body)
		}
	}
	return h.Sum64()
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloadNames {
		a, b, c := sequenceHash(t, wl, 7, 2000), sequenceHash(t, wl, 7, 2000), sequenceHash(t, wl, 8, 2000)
		if a != b {
			t.Errorf("%s: the same seed gave two operation sequences", wl)
		}
		if a == c {
			t.Errorf("%s: two seeds gave the same operation sequence", wl)
		}
	}
}

// fetchedOver sends the first n operations of a one-client workload to a
// fresh system and returns how many tuples the store fetched for them.
func fetchedOver(t *testing.T, workload string, seed int64, n int) int64 {
	sc, err := newScene(testUsers)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := setUp(workload, sc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.tearDown()
	gen, err := newGenerator(workload, sc, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{sys: sys, c: newClient(sys.srv.Handler()), gen: gen}
	for i := 0; i < n; i++ {
		w.do(gen.next(), nil, time.Now())
	}
	if w.failed != 0 {
		t.Errorf("%s: %d of %d operations failed", workload, w.failed, n)
	}
	return readCounters(sys).store.TuplesFetched
}

// A timed run takes a prefix of the seed's operation sequence, as long
// as the box lets it; over a prefix of fixed length the paper's count is
// exact. hot_point's two clients race for the result cache and
// adhoc_shapes races its own background planner for which plan tier
// executes, so the count is held to that on the other two.
func TestFetchedIsAFunctionOfTheSeed(t *testing.T) {
	for wl, n := range map[string]int{wlDeepScan: 40, wlIngestChurn: 900} {
		a, b := fetchedOver(t, wl, 3, n), fetchedOver(t, wl, 3, n)
		if a != b || a == 0 {
			t.Errorf("%s: %d tuples fetched, then %d, for the same %d operations", wl, a, b, n)
		}
	}
}

func TestWorkloadsRunClean(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloadNames {
		res, err := run(testConfig(t, wl, 3, false))
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", wl, res.failed, res.attempted)
		}
		var want []string
		for _, m := range sp.EndToEnd {
			want = append(want, m.Name)
			if v := res.metrics[m.Name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", wl, m.Name, v)
			}
		}
		if got := keys(res.metrics); !slices.Equal(got, sorted(want)) {
			t.Errorf("%s: metrics %v, BENCHMARK.json declares %v", wl, got, want)
		}
	}
}

// A workload that stops exercising the layer it exists for must fail
// here rather than go quietly flat.
func TestWorkloadsLoadTheirLayers(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	traced := map[string]map[string]float64{}
	for _, wl := range workloadNames {
		res, err := run(testConfig(t, wl, 5, true))
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d of %d operations failed", wl, res.failed, res.attempted)
		}
		var want []string
		for _, m := range sp.PerLayer {
			want = append(want, m.Name)
		}
		if got := keys(res.metrics); !slices.Equal(got, sorted(want)) {
			t.Errorf("%s: per-layer metrics %v, BENCHMARK.json declares %v", wl, got, want)
		}
		traced[wl] = res.metrics
	}
	if r := traced[wlAdhocShapes]["engine.plan_cache_hit_ratio"]; r != 0 {
		t.Errorf("adhoc_shapes: plan-cache hit ratio %v, want 0", r)
	}
	if r := traced[wlHotPoint]["serve.result_cache_hit_ratio"]; r < 0.7 {
		t.Errorf("hot_point: result-cache hit ratio %v, want at least 0.7", r)
	}
	if r := traced[wlDeepScan]["serve.result_cache_hit_ratio"]; r != 0 {
		t.Errorf("deep_scan: result-cache hit ratio %v, want 0: pages bypass the cache", r)
	}
	if p := traced[wlDeepScan]["serve.pages_per_op"]; p < 2 {
		t.Errorf("deep_scan: %v pages per scan, want several", p)
	}
	for wl, m := range traced {
		durable := wl == wlIngestChurn
		for _, name := range []string{"shard.apply_us_per_batch", "wal.append_us", "wal.appends_per_batch", "segment.write_ms"} {
			if (m[name] != 0) != durable {
				t.Errorf("%s: %s = %v; shard, wal and segment work on ingest_churn and nowhere else", wl, name, m[name])
			}
		}
	}
}

func TestSpecNamesTheWorkloads(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range sp.Workloads {
		got = append(got, w.Name)
	}
	if !slices.Equal(sorted(got), sorted(workloadNames)) {
		t.Errorf("BENCHMARK.json names workloads %v, the benchmark has %v", got, workloadNames)
	}
}

func TestSlowdownDropsTheSlowestFifth(t *testing.T) {
	runs := []time.Duration{2 * kernelNominal, 2 * kernelNominal, 90 * kernelNominal, 2 * kernelNominal, 2 * kernelNominal}
	if s := slowdown(runs); s != 2 {
		t.Errorf("slowdown %v, want 2: the one run that lost the processor does not count", s)
	}
}

// A window in which the kernel ran at half speed reports half the
// latency and twice the rate the wall clock saw.
func TestAggregateScalesByTheKernel(t *testing.T) {
	var ticks []tick
	for i := 0; i <= ticksPerWindow; i++ {
		at := uint32(i * 100_000)
		ticks = append(ticks, tick{startUs: at, endUs: at, took: 2 * kernelNominal})
	}
	var recs []rec
	for us := uint32(1000); us <= 1_000_000; us += 1000 {
		recs = append(recs, rec{endUs: us, latNs: 4_000_000, firstNs: 2_000_000, kind: opQuery})
	}
	got := aggregate(recs, ticks)
	want := timings{opsPerS: 2000, queryP50: 2, queryP95: 2, firstPageP50: 1, reads: 1000, slow: 2, rawOpsPerS: 1000}
	if got != want {
		t.Errorf("aggregate = %+v, want %+v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for i, d := range []float64{q1 - 2.75, q2 - 5.5, q3 - 8.25} {
		if math.Abs(d) > 1e-9 {
			t.Errorf("quartile %d is off by %v", i+1, d)
		}
	}
}

func keys(m map[string]float64) []string { return slices.Sorted(maps.Keys(m)) }

func sorted(s []string) []string { return slices.Sorted(slices.Values(s)) }
