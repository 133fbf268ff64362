// Benchmarks for the time-series retention tier: the cost of one
// registry sample over a production-shaped instrument population, and
// the proof that retained-history memory is bounded by Window × series
// no matter how long the sampler runs.
//
//	go test -bench BenchmarkTimeSeries -benchmem
//
// TestTimeSeriesBenchEmit measures the same population once and — when
// TIMESERIES_BENCH_JSON names a path — writes the perf trajectory to
// BENCH_timeseries.json.
package bcq

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"bcq/internal/obs"
)

// tsBenchRegistry populates a registry with the rough shape of a
// serving process: labeled latency histograms (endpoint × outcome),
// per-subsystem counters and a handful of gauges — and drives traffic
// through them so every sample diffs real cumulative state.
func tsBenchRegistry(tb testing.TB) *obs.Registry {
	tb.Helper()
	reg := obs.NewRegistry()
	endpoints := []string{"query", "prepare", "ingest", "stats", "healthz", "metrics", "debug"}
	outcomes := []string{"ok", "client_error", "overload", "timeout", "error"}
	for _, ep := range endpoints {
		for _, oc := range outcomes {
			h := reg.Histogram("bench_http_request_seconds", "", obs.LatencyBuckets,
				obs.L("endpoint", ep), obs.L("outcome", oc))
			for i := 0; i < 100; i++ {
				h.Observe(float64(i) / 1e4)
			}
		}
	}
	for i := 0; i < 40; i++ {
		c := reg.Counter(fmt.Sprintf("bench_ops_%d_total", i), "")
		c.Add(int64(i * 17))
	}
	for i := 0; i < 10; i++ {
		reg.Gauge(fmt.Sprintf("bench_level_%d", i), "").Set(float64(i))
	}
	return reg
}

// BenchmarkTimeSeriesSample is the per-tick cost the production sampler
// pays every -timeseries-interval: one Collect over the population plus
// one point appended per series.
func BenchmarkTimeSeriesSample(b *testing.B) {
	reg := tsBenchRegistry(b)
	ts := obs.NewTimeSeries(reg, obs.TimeSeriesOptions{Window: 240})
	ts.Sample() // seed cumulative state
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Sample()
	}
	b.ReportMetric(float64(len(ts.Document("", 1).Series)), "series")
}

// tsBenchMeasurement is the BENCH_timeseries.json payload.
type tsBenchMeasurement struct {
	Series          int    `json:"series"`
	Window          int    `json:"window"`
	SampleNS        int64  `json:"sample_ns"`
	SampleBytes     uint64 `json:"sample_alloc_bytes"`
	HeapGrowthBytes int64  `json:"steady_heap_growth_bytes"`
}

// TestTimeSeriesBenchEmit measures the sampler over the bench
// population and asserts the bounded-memory contract the tier exists
// for: every ring is pre-sized at Window points, so once the rings are
// full, sampling forever overwrites in place — what the sampler retains
// after another full window of samples must not have grown. That is
// counted from the rings' lengths and capacities (RetainedBytes), not
// sampled off the process heap, which other goroutines of the test
// binary move. With TIMESERIES_BENCH_JSON set, the measurements are
// written there (BENCH_timeseries.json in CI).
func TestTimeSeriesBenchEmit(t *testing.T) {
	const window = 64
	reg := tsBenchRegistry(t)
	ts := obs.NewTimeSeries(reg, obs.TimeSeriesOptions{Window: window})
	ts.Sample() // seed: creates every series and its full-window ring
	for i := 0; i < window; i++ {
		ts.Sample()
	}

	retainedFull := ts.RetainedBytes()
	start := time.Now()
	steadyAlloc := allocDuring(func() {
		for i := 0; i < window; i++ {
			ts.Sample()
		}
	})
	sampleNS := time.Since(start).Nanoseconds() / window
	heapGrowth := ts.RetainedBytes() - retainedFull

	doc := ts.Document("", 0)
	if doc.SeriesCount == 0 {
		t.Fatal("sampler tracked no series")
	}
	for _, ser := range doc.Series {
		if len(ser.Points) > window {
			t.Fatalf("series %s retains %d points past the window %d", ser.Name, len(ser.Points), window)
		}
	}
	if heapGrowth != 0 {
		t.Errorf("the sampler's retained state grew %d B over a steady-state window — retained memory is not bounded", heapGrowth)
	}
	t.Logf("%d series, window %d: %dns/sample, %d B transient/window; steady heap growth %+d B",
		doc.SeriesCount, window, sampleNS, steadyAlloc, heapGrowth)

	if path := os.Getenv("TIMESERIES_BENCH_JSON"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tsBenchMeasurement{
			Series:          doc.SeriesCount,
			Window:          window,
			SampleNS:        sampleNS,
			SampleBytes:     steadyAlloc / window,
			HeapGrowthBytes: heapGrowth,
		}); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
