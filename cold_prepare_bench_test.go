// BenchmarkColdPrepare is the cold-path guardrail: an engine-level
// Prepare that misses both the text memo and the plan cache, so every
// iteration pays parse → closure → actualize → EBCheck → cost search →
// emit → statistics shapes, on the live engine bqserve runs. The shapes
// are the 3-, 4- and 6-atom ad hoc families of testdata/adhoc with their
// literals inlined. CI runs it once per change with -benchmem;
// TestPlannerBenchEmit records each shape's allocations and bytes in
// BENCH_planner.json (plan.cold_prepare_<shape>_allocs and _bytes), and
// TestColdPrepareAllocations holds the 4-atom count.
package bcq

import (
	"os"
	"strings"
	"testing"
)

// coldPrepareEngine builds a live engine over the ad hoc scene whose plan
// cache (and text memo) hold one entry, and two texts of the named shape
// that differ in one literal: prepared alternately, each evicts the
// other, so every Prepare is cold.
func coldPrepareEngine(t testing.TB, shape string) (*Engine, [2]string) {
	t.Helper()
	_, acc, db := adhocScene(t)
	ld, err := NewLiveDatabase(db, acc, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewLiveEngine(ld, EngineOptions{PlanCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("testdata/adhoc/" + shape + ".sql")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	if !strings.Contains(text, "album_id = 5\n") {
		t.Fatalf("%s: no album literal to vary", shape)
	}
	return eng, [2]string{text, strings.Replace(text, "album_id = 5\n", "album_id = 6\n", 1)}
}

// coldPrepareShapes are the ad hoc families BenchmarkColdPrepare runs.
var coldPrepareShapes = []struct{ name, file string }{
	{"3atoms", "s01"}, {"4atoms", "s06"}, {"6atoms", "s11"},
}

// coldPrepares returns a function that makes one cold Prepare of the
// named shape per call.
func coldPrepares(t testing.TB, file string) func() error {
	eng, texts := coldPrepareEngine(t, file)
	k := 0
	return func() error {
		k++
		_, err := eng.Prepare(texts[k&1])
		return err
	}
}

// maxColdPrepareAllocs is what one cold prepare of the 4-atom ad hoc
// shape allocates: the text memo and plan-cache entries, the parsed query
// and its resolution, the closure, the actualized constraints and the
// per-atom tables, EBCheck's derivation, the cost model and its search,
// the plan and its drift shapes. It may only move down.
const maxColdPrepareAllocs = 56

// TestColdPrepareAllocations counts, without a clock, what a cold 4-atom
// prepare allocates.
func TestColdPrepareAllocations(t *testing.T) {
	prepare := coldPrepares(t, "s06")
	n := testing.AllocsPerRun(200, func() {
		if err := prepare(); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxColdPrepareAllocs {
		t.Errorf("a cold 4-atom prepare allocates %.0f times, more than the %d it is held to", n, maxColdPrepareAllocs)
	}
}

func BenchmarkColdPrepare(b *testing.B) {
	for _, shape := range coldPrepareShapes {
		b.Run(shape.name, func(b *testing.B) {
			eng, texts := coldPrepareEngine(b, shape.file)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Prepare(texts[i&1]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st := eng.Stats(); st.CacheMisses != int64(b.N) {
				b.Fatalf("%d of %d prepares were cold", st.CacheMisses, b.N)
			}
		})
	}
}
