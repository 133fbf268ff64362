package engine

import (
	"testing"

	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// Two spellings of one shape, and two other shapes, over fixedGroupScene's
// r(a, b).
const (
	memoA1 = `select b from r where a = ?`
	memoA2 = `select  r.b  from r  where r.a = ?`
	memoB  = `select a from r where a = ? and b = ?`
	memoC  = `select b from r where a = 7`
)

func wantStats(t *testing.T, e *Engine, prepares, hits, misses int64) {
	t.Helper()
	st := e.Stats()
	if st.Prepares != prepares || st.CacheHits != hits || st.CacheMisses != misses {
		t.Fatalf("stats = %d prepares, %d hits, %d misses; want %d, %d, %d",
			st.Prepares, st.CacheHits, st.CacheMisses, prepares, hits, misses)
	}
}

// memo reads the text memo's entry for text.
func memo(e *Engine, text string) (parsedText, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.texts.Get(text)
}

// TestTextMemoOnlySkipsTheParser holds the memo to its one job: a text it
// knows reaches lookupOrBuild without a parse, and every rule of the plan
// cache still applies behind it. The memo holds no Prepared, so an
// evicted or re-planned one cannot come back through it.
func TestTextMemoOnlySkipsTheParser(t *testing.T) {
	ls, e := fixedGroupScene(t)

	p1, err := e.Prepare(memoA1)
	if err != nil {
		t.Fatal(err)
	}
	wantStats(t, e, 1, 0, 1)
	if pt, ok := memo(e, memoA1); !ok || pt.fp != p1.Fingerprint() {
		t.Fatalf("the memo kept %q: %v, fingerprint %q", memoA1, ok, pt.fp)
	}
	if p, err := e.Prepare(memoA1); err != nil || p != p1 {
		t.Fatalf("memoised text: %v, same Prepared %v", err, p == p1)
	}
	wantStats(t, e, 2, 1, 1)

	// Another spelling shares the fingerprint, hence the plan; its text is
	// new to the memo, so it is parsed once and then remembered too.
	if _, ok := memo(e, memoA2); ok {
		t.Fatal("the memo knows a text nobody prepared")
	}
	if p, err := e.Prepare(memoA2); err != nil || p != p1 {
		t.Fatalf("second spelling: %v, same Prepared %v", err, p == p1)
	}
	if pt, ok := memo(e, memoA2); !ok || pt.fp != p1.Fingerprint() {
		t.Fatalf("the memo kept %q: %v, fingerprint %q", memoA2, ok, pt.fp)
	}
	if p1.Fingerprint() != p1.Query().String() {
		t.Errorf("Fingerprint() = %q, want the template's rendering %q", p1.Fingerprint(), p1.Query().String())
	}
	wantStats(t, e, 3, 2, 1)

	// Statistics drift: the memoised text still reaches the drift check,
	// which re-plans, and the memo then leads both spellings to the new
	// Prepared.
	for i := int64(0); i < 400; i++ {
		if err := ls.Insert("r", value.Tuple{value.Int(100 + i%8), value.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := e.Prepare(memoA1)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 || e.Stats().Replans != 1 {
		t.Fatalf("drift did not re-plan: same Prepared %v, stats %+v", p2 == p1, e.Stats())
	}
	wantStats(t, e, 4, 2, 2)
	if p, err := e.Prepare(memoA2); err != nil || p != p2 {
		t.Fatalf("after the re-plan the memo leads to something other than the new Prepared (%v)", err)
	}
	wantStats(t, e, 5, 3, 2)
}

// TestTextMemoAfterEviction: the memo may remember a text longer than the
// plan cache remembers its plan. Then Prepare builds a new Prepared
// rather than finding the old one.
func TestTextMemoAfterEviction(t *testing.T) {
	ls, _ := fixedGroupScene(t)
	e, err := NewLive(ls, Options{PlanCacheSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := e.Prepare(memoA1)
	if err != nil {
		t.Fatal(err)
	}
	// Two shapes prepared as built queries go past the memo and push A's
	// plan out of the two-entry cache.
	for _, text := range []string{memoB, memoC} {
		if _, err := e.PrepareQuery(spc.MustParse(text, e.Catalog())); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats()
	if before.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", before.Evictions)
	}
	if _, ok := memo(e, memoA1); !ok {
		t.Fatal("the memo forgot a text the plan cache evicted")
	}
	p2, err := e.Prepare(memoA1)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p1 {
		t.Fatal("Prepare returned the evicted Prepared")
	}
	wantStats(t, e, before.Prepares+1, before.CacheHits, before.CacheMisses+1)
}

// TestMemoisedPrepareHitAllocatesNothing is the ceiling of a prepare that
// finds its plan cached: while the epoch stands still a repeated text
// costs no parse, no statistics snapshot and no allocation at all, and
// every hit still moves the counters.
func TestMemoisedPrepareHitAllocatesNothing(t *testing.T) {
	ls, e := fixedGroupScene(t)
	if _, err := e.Prepare(memoA1); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	const runs = 200
	if n := testing.AllocsPerRun(runs, func() {
		if p, err := e.Prepare(memoA1); err != nil || p == nil {
			t.Fatal("memoised prepare failed")
		}
	}); n != 0 {
		t.Errorf("memoised Prepare allocates %v times per hit, want 0", n)
	}
	// AllocsPerRun makes one warm-up call.
	after := e.Stats()
	if got := after.Prepares - before.Prepares; got != runs+1 || after.CacheHits-before.CacheHits != got {
		t.Errorf("%d prepares and %d hits for %d calls", got, after.CacheHits-before.CacheHits, runs+1)
	}

	// An epoch advance costs the next hit one read of the plan's cards; the
	// hit after it does not even do that.
	if err := ls.Insert("r", value.Tuple{value.Int(2), value.Int(20)}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(memoA1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(runs, func() { _, _ = e.Prepare(memoA1) }); n != 0 {
		t.Errorf("after the epoch's one verification a hit allocates %v times, want 0", n)
	}
}

// TestPrepareAfterCommitAllocatesNothing holds the drift check to its
// ceiling: the first cache hit after a commit re-reads the cards of the
// plan's own constraints from the store's counters — on a live store and,
// summed over the shards, on a two-shard store — and allocates nothing
// for it: no statistics snapshot, no map, no rendered fingerprint. Each
// run forgets the epoch the plan was verified at, so every one of them
// is such a first hit.
func TestPrepareAfterCommitAllocatesNothing(t *testing.T) {
	ls, onLive := fixedGroupScene(t)
	ss, onShards := shardedRScene(t)
	for _, tc := range []struct {
		name   string
		e      *Engine
		commit func() error
	}{
		// Both commits keep every shape: a group grows within its bucket.
		{"live", onLive, func() error { return ls.Insert("r", value.Tuple{value.Int(1), value.Int(12)}) }},
		{"two shards", onShards, func() error { return ss.Insert("r", value.Tuple{value.Int(0), value.Int(100)}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := tc.e.Prepare(memoA1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.commit(); err != nil {
				t.Fatal(err)
			}
			if p.verifiedAt.Load() == tc.e.Epoch() {
				t.Fatal("the commit did not move the epoch")
			}
			if n := testing.AllocsPerRun(100, func() {
				p.verifiedAt.Store(0)
				if q, err := tc.e.Prepare(memoA1); err != nil || q != p {
					t.Fatal("the hit after a shape-keeping commit did not serve the cached plan")
				}
			}); n != 0 {
				t.Errorf("a cache hit that re-checks drift allocates %v times, want 0", n)
			}
			if p.verifiedAt.Load() != tc.e.Epoch() {
				t.Error("the hit did not re-check drift at the new epoch")
			}
		})
	}
}

// shardedRScene is fixedGroupScene's r(a, b) over two shards: eight groups of
// two entries.
func shardedRScene(t testing.TB) (*shard.Store, *Engine) {
	t.Helper()
	r, err := schema.NewRelation("r", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := schema.NewCatalog(r)
	if err != nil {
		t.Fatal(err)
	}
	acc := schema.MustAccessSchema(schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 100))
	db := storage.NewDatabase(cat)
	for a := int64(0); a < 8; a++ {
		for _, b := range []int64{10, 11} {
			if err := db.Insert("r", value.Tuple{value.Int(a), value.Int(b)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ss, err := shard.New(db, acc, shard.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewSharded(ss, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ss, e
}
