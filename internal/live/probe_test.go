package live

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// probeDomain is the values a probe history draws from: each integer
// beside the string that renders like it, so a probe that confused
// Int(1) with Str("1") would find the other's group.
var probeDomain = []value.Value{value.Int(0), value.Str("0"), value.Int(1), value.Str("1"), value.Int(2), value.Str("2")}

// probeScene is r(a, b, c) under a → (b, 3) and (a, b) → (c, 3), which a
// history writes to after its last Compact, and s(x, y) under x → (y, 3),
// which it writes to only before.
func probeScene(t *testing.T) *Store {
	t.Helper()
	cat := schema.MustCatalog(schema.MustRelation("r", "a", "b", "c"), schema.MustRelation("s", "x", "y"))
	acc := schema.MustAccessSchema(
		schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 3),
		schema.MustAccessConstraint("r", []string{"a", "b"}, []string{"c"}, 3),
		schema.MustAccessConstraint("s", []string{"x"}, []string{"y"}, 3),
	)
	st, err := New(storage.NewDatabase(cat), acc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// probeBatch draws a random batch of ops on rel: inserts of tuples over
// the domain (some over a bound) and deletes of live tuples, sometimes of
// a whole group's. Commit it with admitted.
func probeBatch(t *testing.T, rng *rand.Rand, snap *Snapshot, rel string, arity int) []Op {
	t.Helper()
	live, err := snap.Tuples(rel)
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for range 1 + rng.Intn(8) {
		if len(live) > 0 && rng.Intn(5) < 2 {
			victim := live[rng.Intn(len(live))]
			for _, tu := range live {
				if tu.Equal(victim) || rng.Intn(4) == 0 && tu[0] == victim[0] {
					ops = append(ops, Delete(rel, tu))
				}
			}
			continue
		}
		tu := make(value.Tuple, arity)
		for i := range tu {
			tu[i] = probeDomain[rng.Intn(len(probeDomain))]
		}
		ops = append(ops, Insert(rel, tu))
	}
	return ops
}

// admitted commits what a store admits of a batch: it drops the op each
// rejection names (a bound violation or a missing delete target), one at
// a time, until apply commits the rest as one batch, and returns the ops
// committed. Another error fails the test.
func admitted(t testing.TB, apply func([]Op) error, ops []Op) []Op {
	t.Helper()
	for {
		err := apply(ops)
		if err == nil {
			return ops
		}
		var be *BoundError
		var nf *NotFoundError
		i := -1
		switch {
		case errors.As(err, &be):
			i = slices.IndexFunc(ops, func(op Op) bool {
				return op.Kind == OpInsert && op.Rel == be.AC.Rel && op.Tuple.Equal(be.Tuple)
			})
		case errors.As(err, &nf):
			i = slices.IndexFunc(ops, func(op Op) bool {
				return op.Kind == OpDelete && op.Rel == nf.Rel && op.Tuple.Equal(nf.Tuple)
			})
		}
		if i < 0 {
			t.Fatal(err)
		}
		ops = slices.Delete(slices.Clone(ops), i, i+1)
	}
}

// applyTo is st.Apply for admitted.
func applyTo(st *Store) func([]Op) error {
	return func(ops []Op) error {
		_, err := st.Apply(ops)
		return err
	}
}

// probeXs is every X-value over the domain for an X of width n, twice,
// shuffled, and one value no tuple holds.
func probeXs(rng *rand.Rand, n int) []value.Tuple {
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
	xs = append(xs, xs...)
	absent := make(value.Tuple, n)
	for i := range absent {
		absent[i] = value.Str("absent")
	}
	xs = append(xs, absent)
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	return xs
}

// oneGroup is the group lookup done the slow way, one probe at a time:
// find the encoded X-key among all the leaves of the constraint's trie,
// else read the base index.
func oneGroup(s *Snapshot, acKey string, x value.Tuple) []storage.IndexEntry {
	if _, ok := s.binds[acKey]; !ok {
		return nil
	}
	if g, ok := trieLeaves(s, acKey)[x.Key()]; ok {
		return g
	}
	idx, ok := s.base.AccessIndexByKey(acKey)
	if !ok {
		return nil
	}
	return idx.Lookup(x)
}

// sameEntries reports whether two groups are the same entries: nil or
// not alike, the same positions, equal witnesses.
func sameEntries(a, b []storage.IndexEntry) bool {
	return (a == nil) == (b == nil) && slices.EqualFunc(a, b, func(x, y storage.IndexEntry) bool {
		return x.Pos() == y.Pos() && x.Witness().Equal(y.Witness())
	})
}

// witnesses renders a group's witness tuples, sorted: a group the live
// store rewrote keeps its entries in the order they were written, a
// rebuild in the order of their witnesses.
func witnesses(g []storage.IndexEntry) string {
	ws := make([]string, len(g))
	for i, e := range g {
		ws[i] = e.Witness().String()
	}
	slices.Sort(ws)
	return fmt.Sprint(ws)
}

// TestFetchBatchMatchesOneAtATime: over random insert/delete/Compact
// histories, every FetchBatch of a snapshot returns, probe for probe, the very group the one-at-a-time
// lookup returns (entries and positions), and the same witnesses a sealed
// database frozen from the snapshot returns — batched or one Fetch at a
// time. The probes cover groups the trie holds, groups deletes emptied,
// groups no write touched, a constraint with no trie, one the base has
// no index of, a value no tuple holds, and Int(1) beside
// Str("1"). A probe of the wrong arity
// fails the whole batch, on both stores.
func TestFetchBatchMatchesOneAtATime(t *testing.T) {
	var rewritten, emptied, untouched int
	for seed := range int64(40) {
		rng := rand.New(rand.NewSource(seed))
		st := probeScene(t)
		apply := func(rel string, arity int) {
			t.Helper()
			admitted(t, applyTo(st), probeBatch(t, rng, st.Snapshot(), rel, arity))
		}
		for range 4 + rng.Intn(4) {
			apply("r", 3)
			apply("s", 2)
		}
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
		if seed%2 == 1 {
			// A constraint the base has no index of: its trie serves it.
			if err := st.ExtendAccess(schema.MustAccessConstraint("r", []string{"c"}, []string{"a", "b"}, 100)); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 + rng.Intn(6) {
			apply("r", 3)
		}
		snap := st.Snapshot()
		db, err := snap.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		for _, ac := range snap.Access().Constraints() {
			key := ac.Key()
			xs := probeXs(rng, len(ac.X))
			got, err := snap.FetchBatch(ac, xs)
			if err != nil {
				t.Fatal(err)
			}
			frozen, err := db.FetchBatch(ac, xs)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				want := oneGroup(snap, key, x)
				if !sameEntries(got[i], want) {
					t.Fatalf("seed %d: %s: FetchBatch's group of %s is %v, one probe's %v", seed, ac, x, got[i], want)
				}
				one, err := db.Fetch(ac, x)
				if err != nil {
					t.Fatal(err)
				}
				if w, f, o := witnesses(got[i]), witnesses(frozen[i]), witnesses(one); w != f || w != o {
					t.Fatalf("seed %d: %s: group of %s has witnesses %s; the frozen database's FetchBatch %s, its Fetch %s", seed, ac, x, w, f, o)
				}
				var inBase bool
				_, inDiff := trieLeaves(snap, key)[x.Key()]
				if idx, ok := snap.base.AccessIndexByKey(key); ok {
					inBase = len(idx.Lookup(x)) > 0
				}
				switch {
				case inDiff && len(want) > 0:
					rewritten++
				case inDiff && inBase:
					emptied++
				case !inDiff && inBase:
					untouched++
				}
			}
			bad := slices.Clone(xs)
			bad[len(bad)/2] = append(slices.Clone(bad[len(bad)/2]), value.Int(0))
			if g, err := snap.FetchBatch(ac, bad); err == nil || g != nil {
				t.Fatalf("seed %d: %s: a batch with one probe of the wrong arity returned %d groups, error %v", seed, ac, len(g), err)
			}
			if g, err := db.FetchBatch(ac, bad); err == nil || g != nil {
				t.Fatalf("seed %d: %s: the sealed database answered a batch with one probe of the wrong arity: %d groups, error %v", seed, ac, len(g), err)
			}
		}
	}
	if rewritten == 0 || emptied == 0 || untouched == 0 {
		t.Fatalf("the histories probed %d rewritten, %d emptied and %d untouched groups; each kind must occur", rewritten, emptied, untouched)
	}
	t.Logf("%d rewritten, %d emptied, %d untouched groups probed", rewritten, emptied, untouched)
}
