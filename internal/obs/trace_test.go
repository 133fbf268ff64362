package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestTraceTree builds a small span tree and checks the text rendering:
// one line per span, indented by depth, tags appended.
func TestTraceTree(t *testing.T) {
	tr := NewTrace("cafe0123cafe0123", "query")
	ex := tr.StartSpan("exec")
	ex.Child("wave 1").Tag("probes", "3").End()
	ex.End()
	tr.Finish()

	got := tr.Tree()
	for _, want := range []string{
		"trace cafe0123cafe0123\n",
		"\n  query — ",
		"\n    exec — ",
		"\n      wave 1 — ",
		" probes=3\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Tree() missing %q:\n%s", want, got)
		}
	}
}

// TestTraceMintsID: an empty ID mints a fresh unique one.
func TestTraceMintsID(t *testing.T) {
	a, b := NewTrace("", "q"), NewTrace("", "q")
	if a.ID() == "" || len(a.ID()) != 16 {
		t.Errorf("minted ID %q, want 16 hex chars", a.ID())
	}
	if a.ID() == b.ID() {
		t.Errorf("two minted traces share ID %q", a.ID())
	}
	if c := NewTrace("client-chosen", "q"); c.ID() != "client-chosen" {
		t.Errorf("explicit ID not adopted: %q", c.ID())
	}
}

// TestSpanCap: past maxSpans, Child returns nil (whose descendants are
// swallowed nil-safely) and the drops are counted and rendered.
func TestSpanCap(t *testing.T) {
	tr := NewTrace("", "root")
	for i := 0; i < maxSpans+10; i++ {
		s := tr.StartSpan("s")
		s.Child("grandchild").End() // nil once the cap hits; must not panic
		s.End()
	}
	if tr.Dropped() == 0 {
		t.Fatal("no spans dropped past the cap")
	}
	if !strings.Contains(tr.Tree(), "spans dropped") {
		t.Error("Tree() does not report dropped spans")
	}
	var doc struct {
		Dropped int `json:"dropped_spans"`
	}
	if err := json.Unmarshal(tr.JSON(), &doc); err != nil || doc.Dropped == 0 {
		t.Errorf("JSON() dropped_spans = %d, err = %v", doc.Dropped, err)
	}
}

// TestTraceJSON checks the machine rendering round-trips: names, tags
// and nesting survive.
func TestTraceJSON(t *testing.T) {
	tr := NewTrace("deadbeef00000000", "query")
	tr.StartSpan("prepare").Tag("cache", "hit").End()
	tr.Finish()

	var doc struct {
		TraceID string   `json:"trace_id"`
		Root    SpanJSON `json:"root"`
	}
	if err := json.Unmarshal(tr.JSON(), &doc); err != nil {
		t.Fatalf("JSON() unmarshal: %v", err)
	}
	if doc.TraceID != "deadbeef00000000" || doc.Root.Name != "query" {
		t.Errorf("trace_id=%q root=%q", doc.TraceID, doc.Root.Name)
	}
	if len(doc.Root.Children) != 1 || doc.Root.Children[0].Tags["cache"] != "hit" {
		t.Errorf("children = %+v", doc.Root.Children)
	}
}

// TestTraceNilSafety: a nil trace and nil spans must absorb the whole
// instrumentation API.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil || tr.Dropped() != 0 {
		t.Error("nil trace accessors not zero")
	}
	sp := tr.StartSpan("x")
	sp.Tag("k", "v").TagInt("n", 1)
	if n := testing.AllocsPerRun(100, func() { sp.TagInt("n", 123456) }); n != 0 {
		t.Errorf("TagInt on a nil span allocates %v times, want 0", n)
	}
	sp.Child("y").End()
	sp.End()
	tr.Finish()
	if tr.Tree() != "" {
		t.Errorf("nil Tree() = %q", tr.Tree())
	}
	if string(tr.JSON()) != "null" {
		t.Errorf("nil JSON() = %s", tr.JSON())
	}
	if tr.FindSpans("x") != nil {
		t.Error("nil FindSpans not nil")
	}
	if sp.Duration() != 0 || sp.Name() != "" || sp.TagValue("k") != "" {
		t.Error("nil span accessors not zero")
	}
}

// TestConcurrentChildren: span creation from concurrent goroutines (the
// scatter-gather shape) must be safe — run under -race.
func TestConcurrentChildren(t *testing.T) {
	tr := NewTrace("", "query")
	parent := tr.StartSpan("fetch")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := parent.Child("shard")
				sp.TagInt("shard", int64(i))
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	parent.End()
	tr.Finish()
	if got := len(tr.FindSpans("shard")); got != 8*50 {
		t.Errorf("FindSpans(shard) = %d spans, want %d", got, 8*50)
	}
}

// TestFindSpans: prefix matching walks the whole tree.
func TestFindSpans(t *testing.T) {
	tr := NewTrace("", "query")
	w := tr.StartSpan("wave 1")
	w.Child("fetch T1: a").End()
	w.Child("verify a").End()
	w.End()
	tr.Finish()
	if got := len(tr.FindSpans("fetch")); got != 1 {
		t.Errorf("FindSpans(fetch) = %d, want 1", got)
	}
	if got := len(tr.FindSpans("wave")); got != 1 {
		t.Errorf("FindSpans(wave) = %d, want 1", got)
	}
}
