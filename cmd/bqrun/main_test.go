package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func cfg(mut func(*config)) config {
	c := config{
		dataset: "social",
		scale:   1.0 / 32,
		query:   "../../testdata/q0.sql",
		budget:  100_000,
		shards:  1,
	}
	if mut != nil {
		mut(&c)
	}
	return c
}

func TestRunSingleQuery(t *testing.T) {
	if err := run(cfg(nil)); err != nil {
		t.Fatal(err)
	}
}

func TestRunIngest(t *testing.T) {
	if err := run(cfg(func(c *config) { c.ingest = 5_000 })); err != nil {
		t.Fatal(err)
	}
}

func TestRunSharded(t *testing.T) {
	if err := run(cfg(func(c *config) { c.shards = 3; c.verbose = true })); err != nil {
		t.Fatal(err)
	}
}

func TestRunShardedIngest(t *testing.T) {
	if err := run(cfg(func(c *config) { c.shards = 4; c.ingest = 5_000 })); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dataset and runs 15 queries")
	}
	if err := run(config{dataset: "mot", scale: 1.0 / 32, workload: true, budget: 200_000, shards: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWorkloadSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a dataset and runs 15 queries at two shard counts")
	}
	if err := run(config{dataset: "tfacc", scale: 1.0 / 32, workload: true, budget: 200_000, shards: 3, verbose: true}); err != nil {
		t.Fatal(err)
	}
}

// TestRunTraceOut: -trace-out writes one machine-readable span tree per
// query — valid JSON with a root span whose name is the query's.
func TestRunTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "traces.jsonl")
	if err := run(cfg(func(c *config) { c.traceOut = out })); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		var tr struct {
			TraceID string `json:"trace_id"`
			Root    struct {
				Name     string          `json:"name"`
				Children json.RawMessage `json:"children"`
			} `json:"root"`
		}
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("trace line %d undecodable: %v: %s", lines, err, sc.Text())
		}
		if tr.TraceID == "" || tr.Root.Name == "" {
			t.Errorf("trace line %d missing trace_id or root span name: %s", lines, sc.Text())
		}
	}
	if lines != 1 {
		t.Errorf("one query wrote %d trace lines, want 1", lines)
	}
}

// TestRunDurableCycle drives the -data-dir lifecycle: a fresh directory
// is seeded (with -ingest streaming through the WAL commit pipeline and
// a checkpoint on exit), a second run recovers it and re-answers the
// query, and a -shards value that disagrees with the manifest is
// rejected.
func TestRunDurableCycle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")

	seed := cfg(func(c *config) {
		c.shards, c.shardsSet = 3, true
		c.dataDir = dir
		c.ingest = 2_000
	})
	if err := run(seed); err != nil {
		t.Fatalf("seeding run: %v", err)
	}
	m, err := os.Stat(filepath.Join(dir, "MANIFEST.json"))
	if err != nil || m.Size() == 0 {
		t.Fatalf("seeding run left no manifest: %v", err)
	}

	wrong := cfg(func(c *config) {
		c.shards, c.shardsSet = 2, true
		c.dataDir = dir
	})
	if err := run(wrong); err == nil {
		t.Fatal("recovery with mismatched -shards was accepted")
	}

	// -shards unset: the manifest's count wins; queries and -v run
	// against the recovered store and the run closes cleanly.
	again := cfg(func(c *config) {
		c.dataDir = dir
		c.verbose = true
	})
	if err := run(again); err != nil {
		t.Fatalf("recovery run: %v", err)
	}

	// A recovered store has no seeding base to duplicate from.
	if err := run(cfg(func(c *config) { c.dataDir = dir; c.ingest = 100 })); err == nil {
		t.Fatal("-ingest into a recovered store was accepted")
	}
}

// stdoutOf runs f with os.Stdout redirected and returns what it printed.
func stdoutOf(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	err = f()
	os.Stdout = saved
	w.Close()
	out := <-printed
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunBadInputs(t *testing.T) {
	if err := run(config{dataset: "nope", scale: 1, workload: true, shards: 1}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run(cfg(func(c *config) { c.query = "" })); err == nil {
		t.Error("missing query accepted")
	}
	if err := run(cfg(func(c *config) { c.query = "missing.sql" })); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*config)
	}{
		{"ingest=-1", func(c *config) { c.ingest = -1 }},
		{"shards=0", func(c *config) { c.shards = 0 }},
		{"shards=-3", func(c *config) { c.shards = -3 }},
		{"scale=0", func(c *config) { c.scale = 0 }},
		{"trace-out+shards", func(c *config) { c.traceOut = "t.jsonl"; c.shards = 2 }},
		{"trace-out+ingest", func(c *config) { c.traceOut = "t.jsonl"; c.ingest = 10 }},
		{"trace-out+data-dir", func(c *config) { c.traceOut = "t.jsonl"; c.dataDir = "d" }},
		{"limit+data-dir", func(c *config) { c.limit = 5; c.dataDir = "d" }},
	}
	for _, tc := range cases {
		if err := run(cfg(tc.mut)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
