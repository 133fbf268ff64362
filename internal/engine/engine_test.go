package engine

import (
	"strings"
	"sync"
	"testing"

	"bcq/internal/core"
	"bcq/internal/datagen"
	"bcq/internal/exec"
	"bcq/internal/obs"
	"bcq/internal/plan"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// socialEngine builds an engine over the small-scale social dataset.
func socialEngine(t testing.TB, opts Options) (*datagen.Dataset, *storage.Database, *Engine) {
	t.Helper()
	ds := datagen.Social()
	db := ds.MustBuild(1.0 / 32)
	e, err := New(ds.Catalog, ds.Access, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds, db, e
}

const socialQ0 = `
	select t1.photo_id
	from in_album as t1, friends as t2, tagging as t3
	where t1.album_id = 1 and t2.user_id = 3
	  and t1.photo_id = t3.photo_id
	  and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id
`

const socialQ1 = `
	select t1.photo_id
	from in_album as t1, friends as t2, tagging as t3
	where t1.album_id = ? and t2.user_id = ?
	  and t1.photo_id = t3.photo_id
	  and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id
`

func sameResults(t *testing.T, got, want *exec.Result) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("got %d tuples, want %d (%v vs %v)", len(got.Tuples), len(want.Tuples), got.Tuples, want.Tuples)
	}
	for i := range want.Tuples {
		if !got.Tuples[i].Equal(want.Tuples[i]) {
			t.Fatalf("tuple %d = %v, want %v", i, got.Tuples[i], want.Tuples[i])
		}
	}
	if got.DQSize != want.DQSize {
		t.Errorf("DQSize = %d, want %d", got.DQSize, want.DQSize)
	}
	if got.Stats != want.Stats {
		t.Errorf("Stats = %+v, want %+v", got.Stats, want.Stats)
	}
}

// directRun is the unprepared pipeline: analyze, plan and execute a query
// from scratch.
func directRun(t *testing.T, ds *datagen.Dataset, db *storage.Database, q *spc.Query) *exec.Result {
	t.Helper()
	an, err := core.NewAnalysis(ds.Catalog, q, ds.Access)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exec.Run(pl, db)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPrepareCachesPlan(t *testing.T) {
	ds, db, e := socialEngine(t, Options{})

	p1, err := e.Prepare(socialQ0)
	if err != nil {
		t.Fatal(err)
	}
	// Same shape, different surface syntax: extra whitespace and an
	// explicit query name must not defeat the fingerprint.
	p2, err := e.Prepare("query Renamed:\n" + strings.ReplaceAll(socialQ0, " and ", "\n  and "))
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same query shape returned distinct prepared values")
	}
	st := e.Stats()
	if st.Prepares != 2 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 2 prepares, 1 miss, 1 hit", st)
	}

	res, err := p1.Exec()
	if err != nil {
		t.Fatal(err)
	}
	q, err := spc.Parse(socialQ0, ds.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, res, directRun(t, ds, db, q))
}

func TestPreparedTemplateBindsPerRequest(t *testing.T) {
	ds, db, e := socialEngine(t, Options{})
	p, err := e.Prepare(socialQ1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumParams() != 2 {
		t.Fatalf("NumParams = %d", p.NumParams())
	}

	q, err := spc.Parse(socialQ1, ds.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	for album := int64(0); album < 2; album++ {
		for user := int64(0); user < 4; user++ {
			got, err := p.Exec(value.Int(album), value.Int(user))
			if err != nil {
				t.Fatal(err)
			}
			inst := q.Instantiate(map[spc.AttrRef]value.Value{
				q.Placeholders[0]: value.Int(album),
				q.Placeholders[1]: value.Int(user),
			})
			sameResults(t, got, directRun(t, ds, db, inst))
		}
	}
	// Eight executions, one plan.
	st := e.Stats()
	if st.CacheMisses != 1 || st.Execs != 8 {
		t.Errorf("stats = %+v, want 1 miss and 8 execs", st)
	}
}

func TestPreparedArgumentErrors(t *testing.T) {
	_, _, e := socialEngine(t, Options{})
	p, err := e.Prepare(socialQ1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Exec(value.Int(1)); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := p.Exec(value.Int(1), value.Null); err == nil {
		t.Error("null argument accepted")
	}
}

func TestSharedClassSlots(t *testing.T) {
	// Two placeholders on Σ_Q-equal attributes share one plan-cache seed:
	// equal arguments behave like a single pin, different arguments make
	// the query unsatisfiable.
	ds, db, e := socialEngine(t, Options{})
	const q = `
		select t1.photo_id
		from in_album as t1, in_album as t2
		where t1.album_id = ? and t2.album_id = ? and t1.album_id = t2.album_id
	`
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	pq, err := spc.Parse(q, ds.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Exec(value.Int(1), value.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	inst := pq.Instantiate(map[spc.AttrRef]value.Value{
		pq.Placeholders[0]: value.Int(1),
		pq.Placeholders[1]: value.Int(1),
	})
	sameResults(t, got, directRun(t, ds, db, inst))
	if len(got.Tuples) == 0 {
		t.Fatal("expected answers for album 1")
	}

	conflict, err := p.Exec(value.Int(0), value.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(conflict.Tuples) != 0 || conflict.Stats.Total() != 0 {
		t.Errorf("conflicting bindings returned %v (stats %+v), want empty with no access",
			conflict.Tuples, conflict.Stats)
	}
}

func TestFixedSlot(t *testing.T) {
	// A placeholder whose class the text also pins: only the pinned value
	// can satisfy it.
	_, _, e := socialEngine(t, Options{})
	p, err := e.Prepare(`select photo_id from in_album where album_id = ? and album_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	match, err := p.Exec(value.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(match.Tuples) == 0 {
		t.Error("binding the pinned value must answer the pinned query")
	}
	miss, err := p.Exec(value.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(miss.Tuples) != 0 || miss.Stats.Total() != 0 {
		t.Errorf("contradicting the pin returned %v, want empty with no access", miss.Tuples)
	}
}

func TestNotEffectivelyBoundedCached(t *testing.T) {
	_, _, e := socialEngine(t, Options{})
	const unbounded = `select photo_id from in_album`
	if _, err := e.Prepare(unbounded); err == nil {
		t.Fatal("unbounded query prepared")
	}
	if _, err := e.Prepare(unbounded); err == nil {
		t.Fatal("unbounded query prepared on second try")
	}
	st := e.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Errorf("stats = %+v: the failure must be cached too", st)
	}
}

func TestPlanCacheEviction(t *testing.T) {
	_, _, e := socialEngine(t, Options{PlanCacheSize: 2})
	shapes := []string{
		`select photo_id from in_album where album_id = 0`,
		`select photo_id from in_album where album_id = 1`,
		`select friend_id from friends where user_id = 0`,
	}
	for _, s := range shapes {
		if _, err := e.Prepare(s); err != nil {
			t.Fatal(err)
		}
	}
	if e.CacheLen() != 2 {
		t.Errorf("cache holds %d plans, want 2", e.CacheLen())
	}
	// The first shape was evicted; preparing it again is a miss.
	if _, err := e.Prepare(shapes[0]); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Evictions < 1 || st.CacheMisses != 4 {
		t.Errorf("stats = %+v, want ≥1 eviction and 4 misses", st)
	}
}

func TestConcurrentPrepareAndExec(t *testing.T) {
	// Many goroutines prepare the same shape and execute it; the shape
	// must be planned exactly once, results must agree, and -race must
	// stay silent.
	ds, db, e := socialEngine(t, Options{})
	q, err := spc.Parse(socialQ1, ds.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	inst := q.Instantiate(map[spc.AttrRef]value.Value{
		q.Placeholders[0]: value.Int(1),
		q.Placeholders[1]: value.Int(3),
	})
	want := directRun(t, ds, db, inst)

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	results := make([]*exec.Result, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := e.Prepare(socialQ1)
			if err != nil {
				errs[g] = err
				return
			}
			results[g], errs[g] = p.Exec(value.Int(1), value.Int(3))
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		sameResults(t, results[g], want)
	}
	st := e.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("planned %d times under concurrency, want exactly once", st.CacheMisses)
	}
	if st.CacheHits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.CacheHits, goroutines-1)
	}
}

func TestEngineRejectsMismatchedSchema(t *testing.T) {
	ds := datagen.Social()
	other := datagen.MOT()
	db := ds.MustBuild(1.0 / 32)
	if _, err := New(ds.Catalog, other.Access, db, Options{}); err == nil {
		t.Error("MOT access schema accepted over the social catalog")
	}
	if _, err := New(nil, ds.Access, db, Options{}); err == nil {
		t.Error("nil catalog accepted")
	}
}

// TestRecorderLatencyFeed: a wired trace recorder receives one latency
// observation per buffered execution (plain and limited), arming the
// rolling-p99 outlier baseline.
func TestRecorderLatencyFeed(t *testing.T) {
	rec := obs.NewTraceRecorder(obs.TraceRecorderOptions{Capacity: 8})
	_, _, e := socialEngine(t, Options{Recorder: rec})

	p, err := e.Prepare(socialQ0)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 600 // past the recorder's rotation interval
	for i := 0; i < runs; i++ {
		if _, err := p.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.ExecLimit(1); err != nil {
		t.Fatal(err)
	}
	if p99 := rec.RollingP99(); p99 <= 0 {
		t.Fatalf("rolling p99 not armed after %d executions", runs+1)
	}
}
