package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func flat(pairs map[string]float64) map[string]float64 { return pairs }

// TestCompareRegression: bytes and counts 30% worse fail the build; a
// time 35% worse is reported as slower and does not; the same relative
// slip under the absolute floor is neither.
func TestCompareRegression(t *testing.T) {
	base := flat(map[string]float64{
		"rows[0].alloc_bytes":  100_000,
		"exec.greedy_fetched":  17,
		"bootstrap.new_allocs": 100,
		"rows[0].total_ns":     10_000_000, // 10ms
		"rows[0].ttft_ns":      60_000,     // 60µs — above floor, small value
		"answers":              90_000,     // no suffix: informational
	})
	cur := flat(map[string]float64{
		"rows[0].alloc_bytes":  130_000,    // +30%, +30 kB > one page
		"exec.greedy_fetched":  23,         // +35%, a count: no floor
		"bootstrap.new_allocs": 126,        // +26%, a count: no floor
		"rows[0].total_ns":     13_500_000, // +35%, +3.5ms > 50µs floor
		"rows[0].ttft_ns":      75_000,     // +25% exactly — not > threshold
		"answers":              1,          // ignored even though it collapsed
	})
	r := compare(base, cur, 0.25)
	if len(r.Regressions) != 3 || r.Regressions[0].Path != "bootstrap.new_allocs" || r.Regressions[1].Path != "exec.greedy_fetched" || r.Regressions[2].Path != "rows[0].alloc_bytes" {
		t.Fatalf("regressions = %+v, want bootstrap.new_allocs, exec.greedy_fetched and rows[0].alloc_bytes", r.Regressions)
	}
	if len(r.Slower) != 1 || r.Slower[0].Path != "rows[0].total_ns" {
		t.Fatalf("slower = %+v, want exactly rows[0].total_ns", r.Slower)
	}
	if !strings.Contains(r.String(), "slower     rows[0].total_ns") {
		t.Errorf("report does not name the slower time:\n%s", r.String())
	}
	if r.Checked != 5 {
		t.Errorf("checked %d paths, want 5 (answers carries no suffix)", r.Checked)
	}
}

// TestCompareNoiseFloor: a huge relative slip on a tiny measurement
// stays under the absolute floor and passes.
func TestCompareNoiseFloor(t *testing.T) {
	base := flat(map[string]float64{"sample_bytes": 10, "overhead_pct": 0.1})
	cur := flat(map[string]float64{"sample_bytes": 60, "overhead_pct": 4.9})
	// +500% but only +50 B (< the 64 B floor); +4.8 points (< 5
	// point floor).
	if r := compare(base, cur, 0.25); len(r.Regressions) != 0 {
		t.Fatalf("noise flagged as regression: %+v", r.Regressions)
	}
	// Past both floor and threshold it fails.
	cur["sample_bytes"] = 3_000
	if r := compare(base, cur, 0.25); len(r.Regressions) != 1 {
		t.Fatalf("real regression not flagged")
	}
}

// TestCompareBytesBelowAPage: a byte count well under a page regresses
// on the relative threshold: a request path of 2 441 B that grows to
// 3 200 B (+31 %, +759 B) regresses, one that grows to 2 500 B does not.
func TestCompareBytesBelowAPage(t *testing.T) {
	base := flat(map[string]float64{"uncached.op_bytes": 2441})
	cur := flat(map[string]float64{"uncached.op_bytes": 3200})
	if r := compare(base, cur, 0.25); len(r.Regressions) != 1 {
		t.Fatalf("2441 -> 3200 B not flagged: %+v", r)
	}
	cur["uncached.op_bytes"] = 2500
	if r := compare(base, cur, 0.25); len(r.Regressions) != 0 {
		t.Fatalf("2441 -> 2500 B flagged: %+v", r.Regressions)
	}
}

// TestCompareZeroBaseline: a count whose baseline is zero regresses at
// its first increase, which no relative threshold can express; bytes
// still get their floor.
func TestCompareZeroBaseline(t *testing.T) {
	base := flat(map[string]float64{"hit.op_allocs": 0, "hit.op_bytes": 0})
	cur := flat(map[string]float64{"hit.op_allocs": 0, "hit.op_bytes": 16})
	if r := compare(base, cur, 0.25); len(r.Regressions) != 0 {
		t.Fatalf("an unchanged zero count or bytes under the floor flagged: %+v", r.Regressions)
	}
	cur["hit.op_allocs"] = 1
	r := compare(base, cur, 0.25)
	if len(r.Regressions) != 1 || r.Regressions[0].Path != "hit.op_allocs" {
		t.Fatalf("regressions = %+v, want hit.op_allocs", r.Regressions)
	}
	if !strings.Contains(r.String(), "REGRESSION hit.op_allocs: 0 -> 1") {
		t.Errorf("report does not name the regression:\n%s", r.String())
	}
}

// TestCompareImprovementAndDrift: improvements and path drift are
// reported, not fatal.
func TestCompareImprovementAndDrift(t *testing.T) {
	base := flat(map[string]float64{"a_ms": 100, "gone_ms": 5})
	cur := flat(map[string]float64{"a_ms": 10, "new_ms": 7})
	r := compare(base, cur, 0.25)
	if len(r.Regressions) != 0 {
		t.Fatalf("regressions = %+v", r.Regressions)
	}
	if len(r.Improved) != 1 || r.Improved[0] != "a_ms" {
		t.Errorf("improved = %v, want [a_ms]", r.Improved)
	}
	if len(r.Missing) != 1 || r.Missing[0] != "gone_ms" {
		t.Errorf("missing = %v, want [gone_ms]", r.Missing)
	}
	if len(r.Added) != 1 || r.Added[0] != "new_ms" {
		t.Errorf("added = %v, want [new_ms]", r.Added)
	}
	out := r.String()
	for _, want := range []string{"improved   a_ms", "gone_ms missing", "new path new_ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestLoadFlat: nested objects and arrays flatten to dotted paths.
func TestLoadFlat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, []byte(`{"rows": [{"total_ns": 5, "mode": "x"}], "top_pct": 1.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := loadFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	if m["rows[0].total_ns"] != 5 || m["top_pct"] != 1.5 {
		t.Fatalf("flattened map = %v", m)
	}
	if _, ok := m["rows[0].mode"]; ok {
		t.Error("non-numeric leaf flattened")
	}
	if _, err := loadFlat(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}
