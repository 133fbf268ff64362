// Command benchcmp compares a benchmark-emit JSON file (BENCH_obs.json,
// BENCH_streaming.json, BENCH_timeseries.json, …) against a committed
// baseline: it fails when a byte, count or overhead measurement regressed
// past the threshold and reports times that did. CI runs it after the
// bench-emit tests so such a regression fails the build like a broken
// test.
//
// Usage:
//
//	benchcmp -baseline bench/BENCH_obs.json -current BENCH_obs.json
//	benchcmp -baseline old.json -current new.json -threshold 0.5
//
// Both files are flattened to dotted numeric paths (arrays index as
// rows[0], rows[1], …). A path counts as lower-is-better by suffix —
// _bytes (allocation), _allocs (objects allocated), _fetched (tuples
// fetched), _pct (overhead), _ns/_us/_ms (time) — everything else is
// informational. A change must
// clear BOTH the relative threshold (default +25%) and the suffix's
// absolute floor, so noise on near-zero measurements (a 30ns path, a 0.1%
// overhead) never counts. The bytes floor is small (64 B): the relative
// threshold already scales with the baseline, so a 2.4 KB allocation
// regresses at +25 % and not only past a page. Bytes, counts and overheads that regress fail
// the build; times that do are reported as slower and do not, because a
// loaded machine moves them past any threshold on an unchanged commit.
// Paths present only in one file are reported but not fatal: emit formats
// may grow fields.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	baseline := flag.String("baseline", "", "committed baseline JSON")
	current := flag.String("current", "", "freshly emitted JSON")
	threshold := flag.Float64("threshold", 0.25, "relative regression that fails (0.25 = +25%)")
	flag.Parse()
	if *baseline == "" || *current == "" {
		fmt.Fprintln(os.Stderr, "benchcmp: -baseline and -current are required")
		os.Exit(2)
	}
	base, err := loadFlat(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := loadFlat(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	report := compare(base, cur, *threshold)
	fmt.Print(report.String())
	if len(report.Regressions) > 0 {
		os.Exit(1)
	}
}

// suffixes maps a lower-is-better suffix to the absolute increase a
// change must also exceed — units differ per suffix, so each gets its own
// noise floor — and to whether a regression fails the build (asserted) or
// is only reported.
var suffixes = []struct {
	suffix   string
	floor    float64
	asserted bool
}{
	{"_bytes", 64, true},   // a few words: jitter on a tiny or zero baseline
	{"_fetched", 0, true},  // tuples fetched: a count, exact run to run
	{"_allocs", 0, true},   // objects allocated: a count, exact run to run
	{"_pct", 5, true},      // five points — overhead percentages swing with scheduler noise
	{"_ns", 50_000, false}, // 50µs of wall time
	{"_us", 50, false},     // same floor, microsecond-denominated
	{"_ms", 1, false},      // 1ms
}

// lowerIsBetter reports whether the path's last segment carries a
// lower-is-better suffix, its absolute floor, and whether it is asserted.
func lowerIsBetter(path string) (floor float64, asserted, ok bool) {
	last := path
	if i := strings.LastIndex(path, "."); i >= 0 {
		last = path[i+1:]
	}
	for _, s := range suffixes {
		if strings.HasSuffix(last, s.suffix) {
			return s.floor, s.asserted, true
		}
	}
	return 0, false, false
}

// regression is one measurement that got worse past threshold + floor.
type regression struct {
	Path     string
	Base     float64
	Current  float64
	Relative float64 // (current-base)/base, +0.30 = 30% slower
}

// reportData is everything compare found, renderable and testable.
type reportData struct {
	Checked     int
	Regressions []regression // asserted measurements: fatal
	Slower      []regression // times: reported
	Improved    []string
	Missing     []string // in baseline, absent in current
	Added       []string // in current, absent in baseline
}

func (r reportData) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchcmp: %d lower-is-better measurements checked\n", r.Checked)
	for _, reg := range r.Regressions {
		fmt.Fprintf(&b, "  REGRESSION %s: %.0f -> %.0f (%+.1f%%)\n",
			reg.Path, reg.Base, reg.Current, reg.Relative*100)
	}
	for _, reg := range r.Slower {
		fmt.Fprintf(&b, "  slower     %s: %.0f -> %.0f (%+.1f%%; a time, reported, not asserted)\n",
			reg.Path, reg.Base, reg.Current, reg.Relative*100)
	}
	for _, p := range r.Improved {
		fmt.Fprintf(&b, "  improved   %s\n", p)
	}
	for _, p := range r.Missing {
		fmt.Fprintf(&b, "  note: baseline path %s missing from current emit\n", p)
	}
	for _, p := range r.Added {
		fmt.Fprintf(&b, "  note: new path %s not in baseline (commit a refreshed baseline to track it)\n", p)
	}
	if len(r.Regressions) == 0 {
		b.WriteString("  ok: no measurement regressed past threshold\n")
	}
	return b.String()
}

// compare walks the baseline's lower-is-better paths and flags those
// whose current value exceeds the relative threshold AND the absolute
// floor — past a baseline of zero, the floor alone: a regression when the
// path is asserted, slower when it is a time.
func compare(base, cur map[string]float64, threshold float64) reportData {
	var r reportData
	for _, path := range sortedKeys(base) {
		floor, asserted, checked := lowerIsBetter(path)
		if !checked {
			continue
		}
		cv, ok := cur[path]
		if !ok {
			r.Missing = append(r.Missing, path)
			continue
		}
		r.Checked++
		bv := base[path]
		diff := cv - bv
		// A baseline of zero or less has no relative scale: any rise past
		// the floor regresses it (a path that allocated nothing and now
		// allocates once).
		if diff > floor && (bv <= 0 || diff/bv > threshold) {
			reg := regression{Path: path, Base: bv, Current: cv, Relative: math.Inf(1)}
			if bv > 0 {
				reg.Relative = diff / bv
			}
			if asserted {
				r.Regressions = append(r.Regressions, reg)
			} else {
				r.Slower = append(r.Slower, reg)
			}
		} else if bv > 0 && -diff > floor && -diff/bv > threshold {
			r.Improved = append(r.Improved, path)
		}
	}
	for _, path := range sortedKeys(cur) {
		if _, _, checked := lowerIsBetter(path); !checked {
			continue
		}
		if _, ok := base[path]; !ok {
			r.Added = append(r.Added, path)
		}
	}
	return r
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// loadFlat reads a JSON file and flattens every number to a dotted
// path.
func loadFlat(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	flatten("", v, out)
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, child, out)
		}
	case []any:
		for i, child := range x {
			flatten(fmt.Sprintf("%s[%d]", prefix, i), child, out)
		}
	case float64:
		out[prefix] = x
	}
}
