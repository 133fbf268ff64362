// Property test for the streaming executor's id-encoded state (run it
// with -race): what a stream reports — answers, access statistics, |D_Q|,
// the per-operation breakdowns with the probes a limit saved — does not
// depend on how many shards the store is cut into. Value ids are private
// to a stream and shard-local positions are told apart in D_Q, so neither
// may show.
package bcq

import (
	"fmt"
	"testing"
)

// renderStreamResult renders everything a drained stream reports.
func renderStreamResult(r *Result) string {
	return fmt.Sprintf("%s limit=%d limited=%v steps=%+v verifies=%+v", renderLiveResult(r), r.Limit, r.Limited, r.StepStats, r.VerifyStats)
}

// TestShardedStreamsIdenticalAtEveryWidth drains the four-step chain of
// the streaming benchmarks from several users — whole and cut short by a
// limit, at the default wave budget and at a small one — on a single
// store, and requires byte-identical reports on sharded stores at
// P ∈ {1, 2, 3}.
func TestShardedStreamsIdenticalAtEveryWidth(t *testing.T) {
	cat, acc, err := ParseDDL(deepJoinDDL)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(cat)
	ins := func(rel string, a, b int) {
		if err := db.Insert(rel, Tuple{Int(int64(a)), Int(int64(b))}); err != nil {
			t.Fatal(err)
		}
	}
	const users = 120
	for u := 0; u < users; u++ {
		for k := 0; k < 6; k++ {
			ins("friends", u, (u*5+k*7+1)%users)
		}
		for a := 0; a < 2; a++ {
			ins("album_owner", u*2+a, u)
			for ph := 0; ph < 3; ph++ {
				ins("in_album", (u*2+a)*3+ph, u*2+a)
			}
		}
	}
	q, err := ParseQuery(`
		select t4.photo_id
		from friends as t1, friends as t2, album_owner as t3, in_album as t4
		where t1.user_id = ? and t1.friend_id = t2.user_id
		  and t2.friend_id = t3.user_id and t3.album_id = t4.album_id`, cat)
	if err != nil {
		t.Fatal(err)
	}

	type variant struct {
		name string
		prep *Prepared
	}
	var variants []variant
	add := func(name string, eng *Engine, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prep, err := eng.PrepareQuery(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		variants = append(variants, variant{name, prep})
	}
	for _, p := range []int{1, 2, 3} {
		ss, err := NewShardedDatabase(db, acc, ShardOptions{Shards: p})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		eng, err := NewShardedEngine(ss, EngineOptions{})
		add(fmt.Sprintf("P=%d", p), eng, err)
	}
	eng, err := NewEngine(cat, acc, db, EngineOptions{})
	add("single", eng, err)
	ref := variants[3] // the single store

	drain := func(v variant, opts StreamOptions, user int) *Result {
		s, err := v.prep.ExecStream(opts, Int(int64(user)))
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		res, err := s.Drain()
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		return res
	}
	skipped := 0
	for user := 0; user < users; user += 17 {
		for _, opts := range []StreamOptions{{}, {BatchSize: 7}, {Limit: 5}, {Limit: 40, BatchSize: 7}} {
			want := drain(ref, opts, user)
			if len(want.Tuples) == 0 || want.Limited != (opts.Limit > 0) {
				t.Fatalf("user %d %+v: %d answers, limited=%v: the scene is too sparse", user, opts, len(want.Tuples), want.Limited)
			}
			for _, st := range want.StepStats {
				skipped += int(st.Skipped)
			}
			for _, v := range variants {
				if got := drain(v, opts, user); renderStreamResult(got) != renderStreamResult(want) {
					t.Errorf("user %d %+v: %s diverged\n got:  %s\n want: %s", user, opts, v.name, renderStreamResult(got), renderStreamResult(want))
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no limited drain left probes unissued: the Skipped columns were compared at zero only")
	}
}
