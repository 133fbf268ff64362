package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"bcq/internal/baseline"
	"bcq/internal/core"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// mixKinds maps the integers of a scene one to one onto values of mixed
// kinds that are built to be confused: a third stay integers, a third
// become the string that renders like the integer before them (which is
// one of those that stayed), and the rest become other strings, the empty
// one included.
func mixKinds(n int64) value.Value {
	switch {
	case n%3 == 0:
		return value.Int(n)
	case n%3 == 1:
		return value.Str(strconv.FormatInt(n-1, 10))
	case n == 2:
		return value.Str("")
	default:
		return value.Str("s" + strconv.FormatInt(n, 10))
	}
}

// TestStreamOverMixedKinds runs the mesh chain with every class holding
// integers, integer-like strings and the empty string side by side. The
// mapping is one to one, so the join must keep its shape: the answer is
// the image of the integer scene's, at every batch size, and equals the
// conventional hash join's over the same data. An executor that let
// Int(3) and Str("3") share an id would join what does not join.
func TestStreamOverMixedKinds(t *testing.T) {
	intPlan, intDB := meshChain(t)
	want, err := Run(intPlan, intDB)
	if err != nil {
		t.Fatal(err)
	}

	cat, acc := chainCatalog()
	db := storage.NewDatabase(cat)
	for _, rel := range []string{"friends", "album_owner", "in_album"} {
		r, err := intDB.Relation(rel)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range r.Tuples {
			if err := db.Insert(rel, value.Tuple{mixKinds(tu[0].AsInt()), mixKinds(tu[1].AsInt())}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.BuildIndexes(acc); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildRowIndexes(acc); err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalysis(cat, spc.MustParse(chainQuery, cat), acc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := baseline.HashJoin(p.Closure, db, baseline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	image := map[value.Value]bool{}
	kinds := map[value.Kind]int{}
	for _, tu := range want.Tuples {
		v := mixKinds(tu[0].AsInt())
		image[v] = true
		kinds[v.Kind()]++
	}
	if len(image) != len(want.Tuples) || kinds[value.KindInt] == 0 || kinds[value.KindString] == 0 {
		t.Fatalf("fixture: %d answers map to %d values of kinds %v", len(want.Tuples), len(image), kinds)
	}
	for _, bs := range streamBatchSizes {
		_, res, _ := drained(t, p, db, bs)
		if !sameTuples(res.Tuples, ref.Tuples) {
			t.Fatalf("batch %d: %d answers, hash join %d", bs, len(res.Tuples), len(ref.Tuples))
		}
		if len(res.Tuples) != len(image) {
			t.Fatalf("batch %d: %d answers, the integer scene has %d", bs, len(res.Tuples), len(image))
		}
		for _, tu := range res.Tuples {
			if !image[tu[0]] {
				t.Fatalf("batch %d: answer %v is not the image of an integer answer", bs, tu)
			}
		}
		if res.Stats != want.Stats || res.DQSize != want.DQSize {
			t.Fatalf("batch %d: stats %+v dq=%d, the integer scene's %+v dq=%d", bs, res.Stats, res.DQSize, want.Stats, want.DQSize)
		}
	}
}

// report renders what a stream reports besides its answers.
func report(r *Result) string {
	return fmt.Sprintf("stats=%+v dq=%d limited=%v steps=%+v verifies=%+v", r.Stats, r.DQSize, r.Limited, r.StepStats, r.VerifyStats)
}

// TestPagedNextEqualsDrain: pulling a stream Next by Next in pages of
// arbitrary sizes — reading Result between pages, as the serving layer
// does — yields the answers of a drain in the same discovery order and
// ends with the same report, limited or not. It does so whether each
// answer gets a tuple of its own (Next()), which stays intact while later
// pages are produced, or every answer is written into one buffer reused
// across the whole stream (Next(buf...)), which is then never reallocated.
func TestPagedNextEqualsDrain(t *testing.T) {
	p, db := meshChain(t)
	rng := rand.New(rand.NewSource(77))
	for _, bs := range streamBatchSizes {
		for _, limit := range []int{0, 1, 37} {
			opts := StreamOptions{BatchSize: bs, Limit: limit}
			var want []value.Tuple
			ref := OpenStream(p, db, opts)
			for {
				tu, ok, err := ref.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				want = append(want, tu)
			}

			for _, reuse := range []bool{false, true} {
				s := OpenStream(p, db, opts)
				var got, copies []value.Tuple
				buf := make(value.Tuple, 0, 1)
				for !s.Done() {
					for n := 1 + rng.Intn(40); n > 0; n-- {
						var tu value.Tuple
						var ok bool
						var err error
						if reuse {
							tu, ok, err = s.Next(buf...)
						} else {
							tu, ok, err = s.Next()
						}
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							break
						}
						if reuse && &tu[:1][0] != &buf[:1][0] {
							t.Fatalf("batch %d limit %d: Next(buf...) wrote answer %d outside the buffer it had room in", bs, limit, len(got))
						}
						got = append(got, tu)
						copies = append(copies, tu.Clone())
					}
					if mid := s.Result(); mid.Stats.TuplesFetched > ref.Result().Stats.TuplesFetched {
						t.Fatalf("batch %d limit %d: a page reports %d tuples fetched, the whole scan %d", bs, limit, mid.Stats.TuplesFetched, ref.Result().Stats.TuplesFetched)
					}
				}
				if len(got) != len(want) {
					t.Fatalf("batch %d limit %d reuse %v: %d answers paged, %d drained", bs, limit, reuse, len(got), len(want))
				}
				for i := range want {
					if !copies[i].Equal(want[i]) || !reuse && !got[i].Equal(copies[i]) {
						t.Fatalf("batch %d limit %d reuse %v: answer %d is %v (copied as %v), the drain's %v", bs, limit, reuse, i, got[i], copies[i], want[i])
					}
				}
				if a, b := report(s.Result()), report(ref.Result()); a != b {
					t.Fatalf("batch %d limit %d reuse %v: paged stream reports\n  %s\ndrained stream\n  %s", bs, limit, reuse, a, b)
				}
			}
		}
	}
}

// poolKeeps reports whether statePool hands back what was just put.
func poolKeeps() bool {
	for i := 0; i < 64; i++ {
		st := new(streamState)
		statePool.Put(st)
		if got := statePool.Get().(*streamState); got != st {
			statePool.Put(got)
			return false
		}
	}
	return true
}

// countingStore counts the probe batches a stream issues; each costs the
// store one result slice, which is not the stream's allocation.
type countingStore struct {
	Store
	batches int
}

func (c *countingStore) FetchBatch(ac schema.AccessConstraint, xs []value.Tuple) ([][]storage.IndexEntry, error) {
	c.batches++
	return c.Store.FetchBatch(ac, xs)
}

// TestStreamWaveAllocatesNothingAfterWarmup: a stream that opens on the
// state a like one left in the pool runs all its waves — interning,
// candidate sets, row tables, join indexes, D_Q, answer dedup — without
// allocating. What a whole drain still allocates is a fixed handful per
// stream (the Stream, its column names and counters, the join orders), the
// store's result slice per probe batch — nothing per fetched tuple, row
// or answer: the answers are pulled into one reused tuple, the way the
// serving layer writes a page. Before the executor was id-encoded the
// same drain allocated about five times per fetched tuple.
func TestStreamWaveAllocatesNothingAfterWarmup(t *testing.T) {
	p, db := meshChainOf(t, 300, 40, 2, 4)
	const batch = 4
	// One processor, so that the pool hands a finished stream's state to
	// the very next one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if !poolKeeps() {
		t.Skip("the pool does not return what was just put into it (the race detector drops a quarter of all puts, and instruments allocation besides)")
	}
	type drained struct {
		grown                   bool // the stream opened on a state some stream had grown
		answers, batches, waves int
		fetched                 int64
		mallocs, bytes          int
	}
	drain := func() drained {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		store := &countingStore{Store: db}
		s := OpenStream(p, store, StreamOptions{BatchSize: batch})
		d := drained{grown: cap(s.dict.kinds) > 64 && cap(s.seenOut.rows) > 64}
		var tu value.Tuple
		for {
			var ok bool
			var err error
			tu, ok, err = s.Next(tu...)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			d.answers++
		}
		d.batches, d.waves, d.fetched = store.batches, s.waves, s.Result().Stats.TuplesFetched
		runtime.ReadMemStats(&after)
		d.mallocs, d.bytes = int(after.Mallocs-before.Mallocs), int(after.TotalAlloc-before.TotalAlloc)
		return d
	}
	first := drain() // grows a state and leaves it in the pool
	if first.answers < 500 || first.fetched < 2000 || first.batches < 40 {
		t.Fatalf("fixture: %d answers from %d tuples in %d probe batches; too small to tell per-tuple allocation from none", first.answers, first.fetched, first.batches)
	}

	// The pool is the runtime's to empty at a collection, so a sample counts
	// only when the stream really opened on a grown state.
	warm := 0
	for i := 0; i < 20; i++ {
		d := drain()
		if !d.grown {
			continue
		}
		warm++
		if d.mallocs > d.batches+32 {
			t.Fatalf("a warm drain of %d tuples allocates %d times; want at most a result slice for each of %d probe batches and a fixed 32", d.fetched, d.mallocs, d.batches)
		}
		// A tuple header per probe, and small change.
		if d.bytes > d.batches*batch*24+8192 {
			t.Fatalf("a warm drain of %d tuples allocates %d bytes for %d one-column answers", d.fetched, d.bytes, d.answers)
		}
	}
	if warm == 0 {
		t.Skip("the pool kept no state across 20 streams; nothing to measure")
	}
	t.Logf("cold drain: %d allocations, %d bytes; %d warm drains within budget (%d tuples, %d answers, %d batches, %d waves)", first.mallocs, first.bytes, warm, first.fetched, first.answers, first.batches, first.waves)
}

// checkClean requires the pool invariant of a state: every slice empty,
// every element kept behind a slice's length reset, every slot array and
// bitset zero, and no string or value left anywhere.
func checkClean(t *testing.T, st *streamState) {
	t.Helper()
	zero32 := func(what string, s []uint32) {
		t.Helper()
		if len(s) != 0 && what != "slots" {
			t.Errorf("%s holds %d words", what, len(s))
		}
		for _, w := range s[:cap(s)] {
			if w != 0 && what == "slots" {
				t.Errorf("a slot array holds a non-zero word")
				return
			}
		}
	}
	rowSetClean := func(what string, rs *rowSet) {
		t.Helper()
		if rs.n != 0 || len(rs.rows) != 0 {
			t.Errorf("%s holds %d rows", what, rs.n)
		}
		zero32("slots", rs.slots)
	}
	if len(st.dict.kinds)+len(st.dict.words)+len(st.dict.strs) != 0 {
		t.Errorf("dictionary holds %d values", len(st.dict.kinds))
	}
	for _, s := range st.dict.strs[:cap(st.dict.strs)] {
		if s != "" {
			t.Errorf("dictionary still refers to the string %q", s)
		}
	}
	zero32("slots", st.dict.slots)
	if st.dq.n != 0 {
		t.Errorf("D_Q ledger counts %d", st.dq.n)
	}
	for _, w := range st.dq.slots {
		if w != 0 {
			t.Errorf("D_Q ledger holds a key")
			break
		}
	}
	if len(st.V)+len(st.enums)+len(st.steps)+len(st.vst)+len(st.tables)+len(st.bind)+len(st.orders) != 0 {
		t.Errorf("per-plan slices are not empty")
	}
	for c := range st.V[:cap(st.V)] {
		cs := &st.V[:cap(st.V)][c]
		if len(cs.ids) != 0 || len(cs.bits) != 0 {
			t.Errorf("candidate set %d holds %d ids", c, len(cs.ids))
		}
		for _, w := range cs.bits[:cap(cs.bits)] {
			if w != 0 {
				t.Errorf("candidate set %d has a bit set behind its length", c)
				break
			}
		}
	}
	for i, v := range st.vst[:cap(st.vst)] {
		if v.enum != nil || v.tbl != nil || len(v.pending) != 0 || v.complete || v.pendMark != 0 || v.yUse != 0 {
			t.Errorf("verification state %d is not reset: %+v", i, v)
		}
	}
	for i, ss := range st.steps[:cap(st.steps)] {
		if ss != (stepState{}) {
			t.Errorf("step state %d is not reset: %+v", i, ss)
		}
	}
	for i := range st.tables[:cap(st.tables)] {
		tbl := &st.tables[:cap(st.tables)][i]
		rowSetClean(fmt.Sprintf("table %d", i), &tbl.rowSet)
		if len(tbl.classes) != 0 || tbl.waveBase != 0 || len(tbl.indexes) != 0 {
			t.Errorf("table %d is not reset", i)
		}
		for _, ix := range tbl.indexes[:cap(tbl.indexes)] {
			if ix == nil {
				continue
			}
			if len(ix.cols)+len(ix.chainOf)+len(ix.head)+len(ix.tail)+len(ix.next) != 0 {
				t.Errorf("an index of table %d is not reset", i)
			}
			zero32("slots", ix.slots)
			zero32("slots", ix.chainOf[:cap(ix.chainOf)])
		}
	}
	rowSetClean("the answer set", &st.seenOut)
	for _, v := range st.xvals[:cap(st.xvals)] {
		if v != value.Null {
			t.Errorf("the probe arena still holds the value %v", v)
			break
		}
	}
	for _, x := range st.xs[:cap(st.xs)] {
		if x != nil {
			t.Errorf("the probe arena still holds a tuple")
			break
		}
	}
	for _, o := range st.orders[:cap(st.orders)] {
		if o != nil {
			t.Errorf("a join order outlived its stream")
		}
	}
	if len(st.xids)+len(st.recs) != 0 {
		t.Errorf("scratch buffers are not empty")
	}
}

// TestReleasedStateIsClean: whatever a stream did — strings and integers,
// single- and multi-column join keys, parked rows, a limit cut short, a
// close with answers unread — the state it hands back satisfies the pool
// invariant, so the next stream starts from capacities and nothing else.
func TestReleasedStateIsClean(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	take := func() *streamState { return statePool.Get().(*streamState) }
	check := func(what string) {
		t.Helper()
		st := take()
		checkClean(t, st)
		if t.Failed() {
			t.Fatalf("after %s", what)
		}
		statePool.Put(st)
	}

	p, db := meshChain(t)
	for _, opts := range []StreamOptions{{BatchSize: 3}, {BatchSize: Unbatched}, {Limit: 7}} {
		if _, err := OpenStream(p, db, opts).Drain(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("a mesh-chain drain with %+v", opts))
	}

	// Random shapes over the property catalog: stars, self-joins, pins.
	cat, acc := propCatalog(), propAccess()
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(4200 + trial)))
		q := propQuery(rng)
		an, err := core.NewAnalysis(cat, q, acc)
		if err != nil {
			t.Fatal(err)
		}
		if !an.EBCheck().EffectivelyBounded {
			continue
		}
		pl, err := plan.QPlan(an)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStream(pl, propDB(t, rng), StreamOptions{BatchSize: 1 + trial%5}).Drain(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("trial %d: %s", trial, q))
	}

	// A stream closed early keeps its state while answers are unread and
	// hands it back with the last of them.
	s := OpenStream(p, db, StreamOptions{BatchSize: 5})
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("first answer: ok=%v err=%v", ok, err)
	}
	s.Close()
	if s.streamState == nil {
		t.Fatal("Close released the state with answers still buffered")
	}
	for {
		if _, ok, _ := s.Next(); !ok {
			break
		}
	}
	if s.streamState != nil || !s.Done() {
		t.Fatal("a closed stream read to its end still holds its state")
	}
	check("a closed stream read to its end")
	if res := s.Result(); res.DQSize == 0 || res.Stats.TuplesFetched == 0 {
		t.Fatalf("a released stream reports %+v, dq=%d", res.Stats, res.DQSize)
	}
}
