package shard_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// probeDomain puts each integer beside the string that renders like it,
// so a probe that confused Int(1) with Str("1") would find the other's
// group.
var probeDomain = []value.Value{value.Int(0), value.Str("0"), value.Int(1), value.Str("1"), value.Int(2), value.Str("2")}

// probeOps draws a batch of ops on rel: inserts over the domain (some
// over a bound) and deletes of live tuples, sometimes of most of a group.
// Commit it with admitted.
func probeOps(t *testing.T, rng *rand.Rand, v *shard.View, rel string, arity int) []live.Op {
	t.Helper()
	tuples, err := v.Tuples(rel)
	if err != nil {
		t.Fatal(err)
	}
	var ops []live.Op
	for range 2 + rng.Intn(12) {
		if len(tuples) > 0 && rng.Intn(5) < 2 {
			victim := tuples[rng.Intn(len(tuples))]
			for _, tu := range tuples {
				if tu.Equal(victim) || rng.Intn(4) == 0 && tu[0] == victim[0] {
					ops = append(ops, live.Delete(rel, tu))
				}
			}
			continue
		}
		tu := make(value.Tuple, arity)
		for i := range tu {
			tu[i] = probeDomain[rng.Intn(len(probeDomain))]
		}
		ops = append(ops, live.Insert(rel, tu))
	}
	return ops
}

// admitted commits what a store admits of a batch: it drops the op each
// rejection names (a bound violation or a missing delete target), one at
// a time, until Apply commits the rest as one batch, and returns the ops
// committed. Another error fails the test.
func admitted(t testing.TB, st *shard.Store, ops []live.Op) []live.Op {
	t.Helper()
	for {
		err := st.Apply(ops)
		if err == nil {
			return ops
		}
		var be *live.BoundError
		var nf *live.NotFoundError
		i := -1
		switch {
		case errors.As(err, &be):
			i = slices.IndexFunc(ops, func(op live.Op) bool {
				return op.Kind == live.OpInsert && op.Rel == be.AC.Rel && op.Tuple.Equal(be.Tuple)
			})
		case errors.As(err, &nf):
			i = slices.IndexFunc(ops, func(op live.Op) bool {
				return op.Kind == live.OpDelete && op.Rel == nf.Rel && op.Tuple.Equal(nf.Tuple)
			})
		}
		if i < 0 {
			t.Fatal(err)
		}
		ops = slices.Delete(slices.Clone(ops), i, i+1)
	}
}

// allXs is every X-value of width n over the domain, twice, shuffled,
// and one value no tuple holds.
func allXs(rng *rand.Rand, n int) []value.Tuple {
	xs := []value.Tuple{{}}
	for range n {
		var wider []value.Tuple
		for _, x := range xs {
			for _, v := range probeDomain {
				wider = append(wider, append(slices.Clone(x), v))
			}
		}
		xs = wider
	}
	absent := make(value.Tuple, n)
	for i := range absent {
		absent[i] = value.Str("absent")
	}
	xs = append(append(xs, xs...), absent)
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// sortedWitnesses renders a group's witnesses in sorted order: a rebuilt
// group lists them in scan order, a rewritten one in write order.
func sortedWitnesses(g []storage.IndexEntry) string {
	ws := make([]string, len(g))
	for i, e := range g {
		ws[i] = e.Witness.String()
	}
	slices.Sort(ws)
	return fmt.Sprint(ws)
}

// TestViewFetchBatchMatchesOneAtATime: at P ∈ {1,2}, over random
// insert/delete/Compact histories that leave every shard at least seven
// commits past its last Compact, a view's FetchBatch returns, probe for
// probe, the entries a one-probe FetchShard at the owning shard returns,
// and the witnesses a sealed database frozen from the view returns to one
// Fetch at a time. One constraint is written only before the Compact, so
// its batches never meet a diff. A probe of the wrong arity fails the
// whole batch.
func TestViewFetchBatchMatchesOneAtATime(t *testing.T) {
	cat := schema.MustCatalog(schema.MustRelation("r", "a", "b", "c"), schema.MustRelation("s", "x", "y"))
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 3),
		schema.MustAccessConstraint("r", []string{"a", "b"}, []string{"c"}, 3),
		schema.MustAccessConstraint("s", []string{"x"}, []string{"y"}, 3),
	)
	for _, p := range []int{1, 2} {
		for seed := range int64(12) {
			rng := rand.New(rand.NewSource(seed))
			st, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			apply := func(rel string, arity int) {
				t.Helper()
				admitted(t, st, probeOps(t, rng, st.View(), rel, arity))
			}
			for range 6 {
				apply("r", 3)
				apply("s", 2)
			}
			if err := st.Compact(); err != nil {
				t.Fatal(err)
			}
			compacted := st.View().Epochs()
			behind := func() bool {
				for s, e := range st.View().Epochs() {
					if e < compacted[s]+7 {
						return true
					}
				}
				return false
			}
			for i := 0; behind(); i++ {
				if i == 200 {
					t.Fatalf("P=%d seed %d: 200 batches left a shard under seven commits past its Compact (epochs %v from %v)", p, seed, st.View().Epochs(), compacted)
				}
				apply("r", 3)
			}
			v := st.View()
			db, err := v.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			for _, ac := range acc.Constraints() {
				xs := allXs(rng, len(ac.X))
				got, err := v.FetchBatch(ac, xs)
				if err != nil {
					t.Fatal(err)
				}
				owners, err := v.Partition(ac, xs)
				if err != nil {
					t.Fatal(err)
				}
				for i, x := range xs {
					one, err := v.FetchShard(owners[i], ac, []value.Tuple{x})
					if err != nil {
						t.Fatal(err)
					}
					if !slices.EqualFunc(got[i], one[0], func(a, b storage.IndexEntry) bool { return a.Pos == b.Pos && a.Witness.Equal(b.Witness) }) {
						t.Fatalf("P=%d seed %d: %s: FetchBatch's group of %s is %v, shard %d's one probe %v", p, seed, ac, x, got[i], owners[i], one[0])
					}
					frozen, err := db.Fetch(ac, x)
					if err != nil {
						t.Fatal(err)
					}
					if a, b := sortedWitnesses(got[i]), sortedWitnesses(frozen); a != b {
						t.Fatalf("P=%d seed %d: %s: group of %s has witnesses %s, the frozen database's %s", p, seed, ac, x, a, b)
					}
				}
				bad := slices.Clone(xs)
				bad[len(bad)/2] = bad[len(bad)/2][1:]
				if g, err := v.FetchBatch(ac, bad); err == nil || g != nil {
					t.Fatalf("P=%d seed %d: %s: a batch with one probe of the wrong arity returned %d groups, error %v", p, seed, ac, len(g), err)
				}
			}
		}
	}
}

// TestPartitionRefusesWrongLengthProbes: a probe whose length is not the
// constraint's |X| is an error for every shard key, the empty one of a
// pinned relation included.
func TestPartitionRefusesWrongLengthProbes(t *testing.T) {
	cat, acc := placementScene(t)
	part, dom := acc.ForRelation("part")[0], acc.ForRelation("dom")[0]
	for _, shards := range []int{1, 2, 3} {
		ss, err := shard.New(storage.NewDatabase(cat), acc, shard.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		v := ss.View()
		for _, c := range []struct {
			ac schema.AccessConstraint
			x  value.Tuple
		}{
			{dom, value.Tuple{str("e0")}},
			{part, value.Tuple{}},
			{part, value.Tuple{str("k0"), str("v0")}},
		} {
			if _, err := v.Partition(c.ac, []value.Tuple{{}, c.x}); err == nil {
				t.Errorf("P=%d: probe %s of %s accepted", shards, c.x, c.ac)
			}
		}
		if owners, err := v.Partition(dom, []value.Tuple{{}, {}}); err != nil || owners[0] != owners[1] {
			t.Errorf("P=%d: empty-key probes routed to %v, %v", shards, owners, err)
		}
	}
}
