package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"bcq/internal/baseline"
	"bcq/internal/core"
	"bcq/internal/obs"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// joinScene plans a query and loads an integer database for it.
func joinScene(t testing.TB, cat *schema.Catalog, acc *schema.AccessSchema, query string, data map[string][][]int64) (*plan.Plan, *storage.Database) {
	t.Helper()
	an, err := core.NewAnalysis(cat, spc.MustParse(query, cat), acc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase(cat)
	for rel, rows := range data {
		for _, r := range rows {
			tu := make(value.Tuple, len(r))
			for i, v := range r {
				tu[i] = value.Int(v)
			}
			if err := db.Insert(rel, tu); err != nil {
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
	return p, db
}

func chainCatalog() (*schema.Catalog, *schema.AccessSchema) {
	cat := schema.MustCatalog(
		schema.MustRelation("friends", "user_id", "friend_id"),
		schema.MustRelation("album_owner", "album_id", "user_id"),
		schema.MustRelation("in_album", "photo_id", "album_id"),
	)
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 200),
		schema.MustAccessConstraint("album_owner", []string{"user_id"}, []string{"album_id"}, 16),
		schema.MustAccessConstraint("in_album", []string{"album_id"}, []string{"photo_id"}, 64),
	)
	return cat, acc
}

const chainQuery = `
	select t4.photo_id
	from friends as t1, friends as t2, album_owner as t3, in_album as t4
	where t1.user_id = 0 and t1.friend_id = t2.user_id
	  and t2.friend_id = t3.user_id and t3.album_id = t4.album_id
`

// meshChain is a friends-of-friends scene whose friend lists overlap, so
// the four-atom chain from user 0 has several join results per answer.
func meshChain(t testing.TB) (*plan.Plan, *storage.Database) {
	return meshChainOf(t, 60, 10, 2, 3)
}

// meshChainOf builds the mesh with the given number of users, friends per
// user, albums per user and photos per album.
func meshChainOf(t testing.TB, users, friends, albums, photos int64) (*plan.Plan, *storage.Database) {
	data := map[string][][]int64{}
	for u := int64(0); u < users; u++ {
		for k := int64(0); k < friends; k++ {
			data["friends"] = append(data["friends"], []int64{u, (u + k + 1) % users})
		}
		for a := int64(0); a < albums; a++ {
			album := u*albums + a
			data["album_owner"] = append(data["album_owner"], []int64{album, u})
			for ph := int64(0); ph < photos; ph++ {
				data["in_album"] = append(data["in_album"], []int64{album*photos + ph, album})
			}
		}
	}
	cat, acc := chainCatalog()
	return joinScene(t, cat, acc, chainQuery, data)
}

// naiveJoinCount is the cardinality of the full join of a stream's row
// tables under the seeds, by nested loops over the tables' id rows.
func naiveJoinCount(s *Stream) int64 {
	bind := map[int]uint32{}
	for _, sd := range s.r.p.Seeds {
		bind[sd.Class] = s.dict.intern(sd.Val)
	}
	var rec func(i int) int64
	rec = func(i int) int64 {
		if i == len(s.tables) {
			return 1
		}
		tbl := &s.tables[i]
		var n int64
		for rn := 0; rn < tbl.n; rn++ {
			row := tbl.row(rn)
			var set []int
			ok := true
			for k, c := range tbl.classes {
				if v, bound := bind[c]; bound {
					if v != row[k] {
						ok = false
						break
					}
					continue
				}
				bind[c] = row[k]
				set = append(set, c)
			}
			if ok {
				n += rec(i + 1)
			}
			for _, c := range set {
				delete(bind, c)
			}
		}
		return n
	}
	return rec(0)
}

// tableFacts is what the join tests read off a stream's row tables. A
// stream hands its state back with its last answer, so the facts are taken
// when the last wave has run and no answer has been pulled yet.
type tableFacts struct {
	tables         int
	rows, fullJoin int64
	complete       bool
}

// runWaves runs a stream's evaluation to its end without pulling an answer
// and reads the tables.
func runWaves(t testing.TB, s *Stream) tableFacts {
	t.Helper()
	for !s.done && s.err == nil {
		s.advance()
	}
	if s.err != nil {
		t.Fatal(s.err)
	}
	if s.streamState == nil {
		return tableFacts{} // a trivial plan evaluates nothing
	}
	f := tableFacts{tables: len(s.tables), fullJoin: naiveJoinCount(s), complete: s.allComplete()}
	for i := range s.tables {
		f.rows += int64(s.tables[i].n)
	}
	return f
}

// drained opens a stream at the batch size, runs it, notes its tables and
// consumes it.
func drained(t testing.TB, p *plan.Plan, db Store, bs int) (*Stream, *Result, tableFacts) {
	t.Helper()
	s := OpenStream(p, db, StreamOptions{BatchSize: bs})
	facts := runWaves(t, s)
	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if s.streamState != nil {
		t.Fatal("a drained stream still holds its evaluation state")
	}
	return s, res, facts
}

// TestJoinLeavesEqualFullJoin pins the semi-naive partition: however the
// tables' rows are spread over waves, the depth-first walks of a drained
// stream reach every result of the full join exactly once.
func TestJoinLeavesEqualFullJoin(t *testing.T) {
	p, db := meshChain(t)
	want, err := baseline.HashJoin(p.Closure, db, baseline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Tuples) < 100 {
		t.Fatalf("fixture answer = %d tuples, want ≥ 100", len(want.Tuples))
	}
	for _, bs := range streamBatchSizes {
		s, res, facts := drained(t, p, db, bs)
		if !sameTuples(res.Tuples, want.Tuples) {
			t.Fatalf("batch %d: %d answers, baseline %d", bs, len(res.Tuples), len(want.Tuples))
		}
		full := facts.fullJoin
		if full <= int64(len(want.Tuples)) {
			t.Fatalf("fixture join has %d results for %d answers: no duplicates to tell apart", full, len(want.Tuples))
		}
		if s.joinLeaves != full {
			t.Fatalf("batch %d: %d join leaves over %d waves, full join has %d results", bs, s.joinLeaves, s.waves, full)
		}
	}

	// The same over random query shapes: self-joins, stars, Boolean
	// queries, constant pins.
	cat, acc := propCatalog(), propAccess()
	checked := 0
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		q := propQuery(rng)
		if err := q.Validate(cat); err != nil {
			t.Fatal(err)
		}
		an, err := core.NewAnalysis(cat, q, acc)
		if err != nil {
			t.Fatal(err)
		}
		if !an.EBCheck().EffectivelyBounded {
			continue
		}
		p, err := plan.QPlan(an)
		if err != nil {
			t.Fatal(err)
		}
		db := propDB(t, rng)
		for _, bs := range streamBatchSizes {
			s, _, facts := drained(t, p, db, bs)
			if facts.tables == 0 || !facts.complete {
				continue // existence gates only, or cut short by an empty table
			}
			if full := facts.fullJoin; s.joinLeaves != full {
				t.Fatalf("trial %d batch %d: %d join leaves, full join has %d results\n  %s", trial, bs, s.joinLeaves, full, q)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no random trial checked")
	}
}

// TestJoinOrderStaysConnected is the regression for the join order. User
// 0 has many friends, every path below a friend is a single row wide, and
// at a small batch size the photos arrive waves after the other tables
// are complete. A connected order walks each late photo row up its one
// path; an order that reaches t1 through the seed constant multiplies
// every photo row with all of user 0's friends.
func TestJoinOrderStaysConnected(t *testing.T) {
	const fanout, photos = 100, 3
	data := map[string][][]int64{}
	for f := int64(1); f <= fanout; f++ {
		g := fanout + f
		data["friends"] = append(data["friends"], []int64{0, f}, []int64{f, g})
		data["album_owner"] = append(data["album_owner"], []int64{g, g})
		for ph := int64(0); ph < photos; ph++ {
			data["in_album"] = append(data["in_album"], []int64{g*photos + ph, g})
		}
	}
	cat, acc := chainCatalog()
	p, db := joinScene(t, cat, acc, chainQuery, data)
	for _, bs := range []int{7, DefaultBatchSize, Unbatched} {
		s, res, _ := drained(t, p, db, bs)
		if len(res.Tuples) != fanout*photos || s.joinLeaves != fanout*photos {
			t.Fatalf("batch %d: %d answers from %d join leaves, want %d of each", bs, len(res.Tuples), s.joinLeaves, fanout*photos)
		}
		// Four tables deep, a result costs at most four row visits; the
		// slack covers delta rows whose walk dead-ends in a table that has
		// no match yet.
		if s.joinVisits > 6*s.joinLeaves {
			t.Fatalf("batch %d: %d row visits for %d join results — the order is not connected", bs, s.joinVisits, s.joinLeaves)
		}
		t.Logf("batch %d: %d waves, %d row visits for %d results", bs, s.waves, s.joinVisits, s.joinLeaves)
	}
}

// TestJoinShapesMatchBaseline drives the join through the shapes its
// order and key handling special-case, at every batch size, against the
// conventional hash join and against Run.
func TestJoinShapesMatchBaseline(t *testing.T) {
	cat := schema.MustCatalog(
		schema.MustRelation("r", "k", "x", "y"),
		schema.MustRelation("q", "k", "w"),
	)
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"k"}, []string{"x", "y"}, 16),
		schema.MustAccessConstraint("q", []string{"k"}, []string{"w"}, 16),
	)
	data := map[string][][]int64{}
	for i := int64(0); i < 12; i++ {
		data["r"] = append(data["r"], []int64{1, i % 4, i % 3}, []int64{2, i, i})
		data["q"] = append(data["q"], []int64{1, i % 5}, []int64{2, i % 4})
	}
	cases := []struct{ name, query string }{
		{"cross product of two disconnected atoms",
			"select r.x, q.w from r, q where r.k = 1 and q.k = 2"},
		{"class repeated inside one atom",
			"select r.x, q.w from r, q where r.k = 1 and r.x = r.y and q.k = 2 and q.w = r.x"},
		{"tables sharing only a seed class",
			"select r.x, q.w from r, q where r.k = 2 and q.k = r.k"},
		{"seed-connected table beside a joined one",
			"select a.x, b.y, q.w from r as a, r as b, q where a.k = 1 and b.k = a.k and q.k = 2 and q.w = b.x"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, db := joinScene(t, cat, acc, c.query, data)
			want, err := baseline.HashJoin(p.Closure, db, baseline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Tuples) == 0 {
				t.Fatal("fixture answer is empty")
			}
			full, err := Run(p, db)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(full.Tuples, want.Tuples) {
				t.Fatalf("Run %v != baseline %v", full.Tuples, want.Tuples)
			}
			for _, bs := range streamBatchSizes {
				s, res, facts := drained(t, p, db, bs)
				if !sameTuples(res.Tuples, full.Tuples) {
					t.Fatalf("batch %d: stream %v != run %v", bs, res.Tuples, full.Tuples)
				}
				if res.Stats != full.Stats || res.DQSize != full.DQSize {
					t.Fatalf("batch %d: stats %+v dq=%d, run %+v dq=%d", bs, res.Stats, res.DQSize, full.Stats, full.DQSize)
				}
				if n := facts.fullJoin; s.joinLeaves != n {
					t.Fatalf("batch %d: %d join leaves, full join has %d results", bs, s.joinLeaves, n)
				}
			}
		})
	}
}

// TestJoinLimitStopsMidWalk: a limit reached inside a depth-first walk
// unwinds it at once — exactly K answers, all true, and fewer join
// results reached than the full join has.
func TestJoinLimitStopsMidWalk(t *testing.T) {
	p, db := meshChain(t)
	full, err := Run(p, db)
	if err != nil {
		t.Fatal(err)
	}
	inFull := make(map[string]bool, len(full.Tuples))
	for _, tu := range full.Tuples {
		inFull[fmt.Sprint(tu)] = true
	}
	unlimited, _, _ := drained(t, p, db, Unbatched)
	for _, bs := range streamBatchSizes {
		for _, limit := range []int{1, 5, 50} {
			s := OpenStream(p, db, StreamOptions{Limit: limit, BatchSize: bs})
			res, err := s.Drain()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tuples) != limit || !res.Limited {
				t.Fatalf("batch %d limit %d: %d answers, limited=%v", bs, limit, len(res.Tuples), res.Limited)
			}
			for _, tu := range res.Tuples {
				if !inFull[fmt.Sprint(tu)] {
					t.Fatalf("batch %d limit %d: %v is not a true answer", bs, limit, tu)
				}
			}
			if s.joinLeaves >= unlimited.joinLeaves {
				t.Fatalf("batch %d limit %d: walked %d join results, the full join has %d", bs, limit, s.joinLeaves, unlimited.joinLeaves)
			}
		}
	}
	// One wave, so the limit can only have been hit inside the single walk.
	s := OpenStream(p, db, StreamOptions{Limit: 5, BatchSize: Unbatched})
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if s.waves != 1 {
		t.Fatalf("unbatched limited drain took %d waves, want 1", s.waves)
	}
}

// TestJoinSpanCarriesJoinWork: a traced stream tags each wave's join span
// with the delta rows it joined and the join results it reached, and the
// per-wave results add up to the stream's total.
func TestJoinSpanCarriesJoinWork(t *testing.T) {
	p, db := meshChain(t)
	tr := obs.NewTrace("", "test")
	s := OpenStream(p, db, StreamOptions{BatchSize: 7, Trace: tr})
	tableRows := runWaves(t, s).rows
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	joins := tr.FindSpans("join")
	if len(joins) != s.waves {
		t.Fatalf("%d join spans over %d waves", len(joins), s.waves)
	}
	var rows, results int64
	for _, sp := range joins {
		r, err1 := strconv.ParseInt(sp.TagValue("delta_rows"), 10, 64)
		n, err2 := strconv.ParseInt(sp.TagValue("results"), 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("join span tags delta_rows=%q results=%q", sp.TagValue("delta_rows"), sp.TagValue("results"))
		}
		rows += r
		results += n
	}
	if rows != tableRows || results != s.joinLeaves {
		t.Fatalf("spans sum to %d delta rows and %d results; tables hold %d rows, the join reached %d", rows, results, tableRows, s.joinLeaves)
	}
}

// TestDeltaEnumRefreshAllocatesOnlyOnGrowth: refresh runs several times
// per step per wave; when no candidate set grew it must not allocate, and
// once its block storage and the caller's buffer have their size a growth
// step does not either.
func TestDeltaEnumRefreshAllocatesOnlyOnGrowth(t *testing.T) {
	V := make([]candSet, 2)
	V[0].add(1)
	V[1].add(2)
	e := newDeltaEnum([]int{0, 1, 0})
	e.refresh(V)
	buf, got := e.next(V, 0, nil)
	if got != 1 || !slices.Equal(buf, []uint32{1, 2, 1}) {
		t.Fatalf("first refresh produced %d combinations %v, want 1: [1 2 1]", got, buf)
	}
	if n := testing.AllocsPerRun(100, func() { e.refresh(V) }); n != 0 {
		t.Fatalf("idle refresh allocates %v times", n)
	}
	V[0].add(3)
	e.refresh(V)
	if buf, got = e.next(V, 0, buf); got != 1 || !slices.Equal(buf, []uint32{3, 2, 3}) {
		t.Fatalf("growth produced %d combinations %v, want 1: [3 2 3]", got, buf)
	}
	V[1].add(500) // the set's own arrays reach their size here
	V[1].ids = slices.Grow(V[1].ids, 200)
	buf = slices.Grow(buf, 64)
	e.refresh(V)
	buf, _ = e.next(V, 0, buf)
	next, produced := uint32(4), 0
	if n := testing.AllocsPerRun(100, func() {
		V[1].add(next)
		next++
		e.refresh(V)
		buf, got = e.next(V, 0, buf)
		produced += got
	}); n != 0 {
		t.Fatalf("refresh and next over a grown set allocate %v times after warm-up", n)
	}
	if produced != 2*101 {
		t.Fatalf("101 new candidates of class 1 against 2 of class 0 produced %d combinations, want 202", produced)
	}
}
