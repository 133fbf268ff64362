package exec

import (
	"math/rand"
	"testing"

	"bcq/internal/baseline"
	"bcq/internal/core"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

func socialCatalog() *schema.Catalog {
	return schema.MustCatalog(
		schema.MustRelation("in_album", "photo_id", "album_id"),
		schema.MustRelation("friends", "user_id", "friend_id"),
		schema.MustRelation("tagging", "photo_id", "tagger_id", "taggee_id"),
	)
}

func accessA0() *schema.AccessSchema {
	return schema.MustAccessSchema(
		schema.MustAccessConstraint("in_album", []string{"album_id"}, []string{"photo_id"}, 1000),
		schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 5000),
		schema.MustAccessConstraint("tagging", []string{"photo_id", "taggee_id"}, []string{"tagger_id"}, 1),
	)
}

const q0src = `
	query Q0:
	select t1.photo_id
	from in_album as t1, friends as t2, tagging as t3
	where t1.album_id = 'a0' and t2.user_id = 'u0'
	  and t1.photo_id = t3.photo_id
	  and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id
`

// socialDB builds the hand-checkable Example 1 scenario:
// album a0 = {p1, p2, p4}; u0's friends = {f1, f2};
// taggings: p1: u0 by f1 (answer), p2: u0 by stranger s9 (not an answer),
// p4: u0 by f2 (answer), p3 (other album): u0 by f1 (not an answer).
func loadSocial(t testing.TB) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(socialCatalog())
	ins := func(rel string, vals ...string) {
		t.Helper()
		tu := make(value.Tuple, len(vals))
		for i, v := range vals {
			tu[i] = value.Str(v)
		}
		if err := db.Insert(rel, tu); err != nil {
			t.Fatal(err)
		}
	}
	ins("in_album", "p1", "a0")
	ins("in_album", "p2", "a0")
	ins("in_album", "p4", "a0")
	ins("in_album", "p3", "a1")
	ins("friends", "u0", "f1")
	ins("friends", "u0", "f2")
	ins("friends", "u1", "f9")
	ins("tagging", "p1", "f1", "u0")
	ins("tagging", "p2", "s9", "u0")
	ins("tagging", "p4", "f2", "u0")
	ins("tagging", "p3", "f1", "u0")
	return db
}

func socialDB(t testing.TB) *storage.Database {
	t.Helper()
	db := loadSocial(t)
	if err := db.BuildIndexes(accessA0()); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildRowIndexes(accessA0()); err != nil {
		t.Fatal(err)
	}
	return db
}

func planQ0(t testing.TB) *plan.Plan {
	t.Helper()
	cat := socialCatalog()
	an, err := core.NewAnalysis(cat, spc.MustParse(q0src, cat), accessA0())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunQ0Answer(t *testing.T) {
	db := socialDB(t)
	p := planQ0(t)
	res, err := Run(p, db)
	if err != nil {
		t.Fatal(err)
	}
	want := []value.Tuple{{value.Str("p1")}, {value.Str("p4")}}
	if len(res.Tuples) != len(want) {
		t.Fatalf("answer = %v, want %v", res.Tuples, want)
	}
	for i := range want {
		if !res.Tuples[i].Equal(want[i]) {
			t.Fatalf("answer[%d] = %v, want %v", i, res.Tuples[i], want[i])
		}
	}
	if res.Cols[0] != "photo_id" {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestRunQ0BoundedAccess(t *testing.T) {
	db := socialDB(t)
	p := planQ0(t)
	res, err := Run(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if p.FetchBound.IsUnbounded() {
		t.Fatal("plan has unbounded fetch bound")
	}
	if res.Stats.TuplesScanned != 0 {
		t.Errorf("evalDQ must not scan: %d tuples scanned", res.Stats.TuplesScanned)
	}
	if res.Stats.TuplesFetched > p.FetchBound.Int64() {
		t.Errorf("fetched %d > bound %v", res.Stats.TuplesFetched, p.FetchBound)
	}
	if res.DQSize == 0 || res.DQSize > res.Stats.TuplesFetched {
		t.Errorf("DQSize = %d (fetched %d)", res.DQSize, res.Stats.TuplesFetched)
	}
}

func TestRunQ0AccessIndependentOfScale(t *testing.T) {
	// The heart of the paper: growing D must not change what evalDQ
	// fetches when the growth respects the access schema. Scaling here
	// adds new albums/users/photos unrelated to a0/u0.
	p := planQ0(t)
	var fetched []int64
	for _, scale := range []int{1, 8, 64} {
		db := loadSocial(t)
		for i := 0; i < scale*50; i++ {
			aid := value.Str(string(rune('b'+i%20)) + "album")
			pid := value.Int(int64(10000 + i))
			uid := value.Int(int64(90000 + i))
			if err := db.Insert("in_album", value.Tuple{pid, aid}); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("friends", value.Tuple{uid, value.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
			if err := db.Insert("tagging", value.Tuple{pid, uid, uid}); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.BuildIndexes(accessA0()); err != nil {
			t.Fatal(err)
		}
		res, err := Run(p, db)
		if err != nil {
			t.Fatal(err)
		}
		fetched = append(fetched, res.Stats.TuplesFetched)
	}
	if fetched[0] != fetched[1] || fetched[1] != fetched[2] {
		t.Errorf("tuples fetched varies with |D|: %v", fetched)
	}
}

func TestRunMatchesBaselines(t *testing.T) {
	db := socialDB(t)
	p := planQ0(t)
	got, err := Run(p, db)
	if err != nil {
		t.Fatal(err)
	}
	cl := p.Closure
	il, err := baseline.IndexLoop(cl, db, baseline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hj, err := baseline.HashJoin(cl, db, baseline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTuples(t, "IndexLoop", got.Tuples, il.Tuples)
	assertSameTuples(t, "HashJoin", got.Tuples, hj.Tuples)
}

func assertSameTuples(t *testing.T, label string, a, b []value.Tuple) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s: %v vs %v", label, a, b)
		return
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Errorf("%s: tuple %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

func TestRunTrivialPlan(t *testing.T) {
	cat := socialCatalog()
	q := spc.MustParse("select photo_id from in_album where album_id = 1 and album_id = 2", cat)
	an, err := core.NewAnalysis(cat, q, accessA0())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Trivial {
		t.Fatal("unsatisfiable query must yield a trivial plan")
	}
	db := socialDB(t)
	db.ResetStats()
	res, err := Run(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 || res.Stats.Total() != 0 {
		t.Errorf("trivial plan touched the database: %+v", res)
	}
}

func TestRunBooleanQuery(t *testing.T) {
	cat := socialCatalog()
	a := accessA0()
	q := spc.MustParse(`select exists from friends where friends.user_id = 'u0'`, cat)
	an, err := core.NewAnalysis(cat, q, a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	db := socialDB(t)
	res, err := Run(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Bool() {
		t.Error("u0 has friends; exists must be true")
	}
	// Pulled, the true answer is the empty tuple, not nil, whether Next
	// is given a buffer or not.
	for _, buf := range []value.Tuple{nil, make(value.Tuple, 0, 2)} {
		if tu, ok, err := OpenStream(p, db, StreamOptions{}).Next(buf...); err != nil || !ok || tu == nil || len(tu) != 0 {
			t.Errorf("Next(%d-value buffer) = %#v, %v, %v; want the empty tuple", cap(buf), tu, ok, err)
		}
	}
	q2 := spc.MustParse(`select exists from friends where friends.user_id = 'nobody'`, cat)
	an2, err := core.NewAnalysis(cat, q2, a)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plan.QPlan(an2)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(p2, db)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Bool() {
		t.Error("nobody has friends; exists must be false")
	}
}

func TestQPlanRejectsUnboundedQuery(t *testing.T) {
	cat := socialCatalog()
	q := spc.MustParse("select photo_id from in_album", cat)
	an, err := core.NewAnalysis(cat, q, accessA0())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.QPlan(an); err == nil {
		t.Fatal("unbounded query must not get a plan")
	}
}

// TestRandomizedEquivalence is the keystone property test: on randomly
// generated databases satisfying A0, evalDQ must agree exactly with both
// full-data baselines, for a family of effectively bounded queries.
func TestRandomizedEquivalence(t *testing.T) {
	cat := socialCatalog()
	a := accessA0()
	queries := []string{
		q0src,
		`select t1.photo_id from in_album as t1 where t1.album_id = 'a1'`,
		`select t2.friend_id from friends as t2 where t2.user_id = 'u1'`,
		`select t3.tagger_id from tagging as t3 where t3.photo_id = 'p1' and t3.taggee_id = 'u0'`,
		`select t1.photo_id, t3.tagger_id from in_album as t1, tagging as t3
		 where t1.photo_id = t3.photo_id and t1.album_id = 'a0' and t3.taggee_id = 'u0'`,
		`select exists from friends where friends.user_id = 'u2'`,
	}
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		db := randomSocialDB(t, rng)
		for qi, src := range queries {
			q := spc.MustParse(src, cat)
			an, err := core.NewAnalysis(cat, q, a)
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.QPlan(an)
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, qi, err)
			}
			got, err := Run(p, db)
			if err != nil {
				t.Fatalf("trial %d query %d: %v", trial, qi, err)
			}
			hj, err := baseline.HashJoin(p.Closure, db, baseline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			il, err := baseline.IndexLoop(p.Closure, db, baseline.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(got.Tuples, hj.Tuples) {
				t.Fatalf("trial %d query %d: evalDQ %v != HashJoin %v", trial, qi, got.Tuples, hj.Tuples)
			}
			if !sameTuples(got.Tuples, il.Tuples) {
				t.Fatalf("trial %d query %d: evalDQ %v != IndexLoop %v", trial, qi, got.Tuples, il.Tuples)
			}
			if got.Stats.TuplesScanned != 0 {
				t.Fatalf("trial %d query %d: evalDQ scanned", trial, qi)
			}
			if !p.FetchBound.IsUnbounded() && got.Stats.TuplesFetched > p.FetchBound.Int64() {
				t.Fatalf("trial %d query %d: fetched %d > bound %v", trial, qi, got.Stats.TuplesFetched, p.FetchBound)
			}
		}
	}
}

func sameTuples(a, b []value.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// randomSocialDB generates a random database over the social catalog that
// satisfies A0 by construction: photos are assigned to few albums, friends
// fan out from few users, and each (photo, taggee) pair is tagged once.
func randomSocialDB(t testing.TB, rng *rand.Rand) *storage.Database {
	t.Helper()
	db := storage.NewDatabase(socialCatalog())
	albums := []string{"a0", "a1", "a2"}
	users := []string{"u0", "u1", "u2", "u3"}
	photos := []string{"p1", "p2", "p3", "p4", "p5", "p6"}
	ins := func(rel string, vals ...string) {
		t.Helper()
		tu := make(value.Tuple, len(vals))
		for i, v := range vals {
			tu[i] = value.Str(v)
		}
		if err := db.Insert(rel, tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range photos {
		if rng.Intn(4) > 0 {
			ins("in_album", p, albums[rng.Intn(len(albums))])
		}
	}
	for _, u := range users {
		for _, f := range users {
			if u != f && rng.Intn(2) == 0 {
				ins("friends", u, f)
			}
		}
	}
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		p := photos[rng.Intn(len(photos))]
		taggee := users[rng.Intn(len(users))]
		if seen[p+taggee] {
			continue // at most one tagger per (photo, taggee)
		}
		seen[p+taggee] = true
		tagger := users[rng.Intn(len(users))]
		ins("tagging", p, tagger, taggee)
	}
	if err := db.BuildIndexes(accessA0()); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildRowIndexes(accessA0()); err != nil {
		t.Fatal(err)
	}
	return db
}
