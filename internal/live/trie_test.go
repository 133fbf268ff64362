package live

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// all visits every leaf of the trie, in no particular order, until visit
// returns false.
func (n *trieNode) all(visit func(key string, group []storage.IndexEntry) bool) bool {
	if n == nil {
		return true
	}
	for _, s := range n.slots {
		if s.leaf != nil {
			if !visit(s.leaf.key, s.leaf.group) {
				return false
			}
		} else if !s.sub.all(visit) {
			return false
		}
	}
	return true
}

// relModel is one relation of trieModel: every tuple since the base by
// position, the dead ones too, which positions are dead, and how many
// positions the base holds.
type relModel struct {
	tuples []value.Tuple
	dead   map[int]bool
	base   int
}

// trieModel is what a snapshot must read at its epoch, kept the naive
// way: the relations by position and the constraints maintained.
type trieModel struct {
	rels map[string]*relModel
	acs  []schema.AccessConstraint
}

func (m *trieModel) clone() *trieModel {
	out := &trieModel{rels: make(map[string]*relModel, len(m.rels)), acs: slices.Clip(m.acs)}
	for rel, r := range m.rels {
		dead := make(map[int]bool, len(r.dead))
		for p := range r.dead {
			dead[p] = true
		}
		out.rels[rel] = &relModel{tuples: slices.Clip(r.tuples), dead: dead, base: r.base}
	}
	return out
}

// live visits the live tuples of a relation in live order.
func (m *trieModel) live(rel string, visit func(pos int, t value.Tuple)) {
	r := m.rels[rel]
	for pos, t := range r.tuples {
		if !r.dead[pos] {
			visit(pos, t)
		}
	}
}

// group is a constraint's X-group as a rebuild would hold it: per
// distinct Y, the first live occurrence.
func (m *trieModel) group(cat *schema.Catalog, ac schema.AccessConstraint, x value.Tuple) map[int]string {
	rs, _ := cat.Relation(ac.Rel)
	xPos, _ := rs.Positions(ac.X)
	yPos, _ := rs.Positions(ac.Y)
	out := make(map[int]string)
	seen := make(map[string]bool)
	m.live(ac.Rel, func(pos int, t value.Tuple) {
		if !t.Project(xPos).Equal(x) {
			return
		}
		if y := value.KeyOf(t, yPos); !seen[y] {
			seen[y] = true
			out[pos] = t.String()
		}
	})
	return out
}

// apply runs a Strict batch on the model: false, and no change, when an
// op would break a bound or deletes a tuple with no live occurrence. It
// reports which kinds of delete the batch made.
func (m *trieModel) apply(cat *schema.Catalog, ops []Op, seen *deleteKinds) bool {
	next := m.clone()
	var kinds deleteKinds
	for _, op := range ops {
		r := next.rels[op.Rel]
		if op.Kind == OpInsert {
			for _, ac := range next.acs {
				if ac.Rel != op.Rel {
					continue
				}
				rs, _ := cat.Relation(ac.Rel)
				xPos, _ := rs.Positions(ac.X)
				yPos, _ := rs.Positions(ac.Y)
				g := next.group(cat, ac, op.Tuple.Project(xPos))
				fresh := true
				for pos := range g {
					if value.KeyOf(r.tuples[pos], yPos) == value.KeyOf(op.Tuple, yPos) {
						fresh = false
					}
				}
				if fresh && int64(len(g)) >= ac.N {
					return false
				}
			}
			r.tuples = append(r.tuples, op.Tuple)
			continue
		}
		pos := slices.IndexFunc(r.tuples, func(t value.Tuple) bool { return t.Equal(op.Tuple) })
		for pos >= 0 && r.dead[pos] {
			i := slices.IndexFunc(r.tuples[pos+1:], func(t value.Tuple) bool { return t.Equal(op.Tuple) })
			if i < 0 {
				pos = -1
				break
			}
			pos += 1 + i
		}
		if pos < 0 {
			return false
		}
		// Classify the delete under each constraint: does it empty a group
		// the base has, empty one the base lacks, or move a witness?
		for _, ac := range next.acs {
			if ac.Rel != op.Rel {
				continue
			}
			rs, _ := cat.Relation(ac.Rel)
			xPos, _ := rs.Positions(ac.X)
			x := op.Tuple.Project(xPos)
			before := next.group(cat, ac, x)
			r.dead[pos] = true
			after := next.group(cat, ac, x)
			delete(r.dead, pos)
			inBase := slices.ContainsFunc(r.tuples[:r.base], func(t value.Tuple) bool { return t.Project(xPos).Equal(x) })
			_, wasWitness := before[pos]
			switch {
			case len(after) == 0 && inBase:
				kinds.emptiedBase++
			case len(after) == 0:
				kinds.emptiedNew++
			case wasWitness && len(after) == len(before):
				kinds.rewitnessed++
			}
		}
		r.dead[pos] = true
	}
	*m = *next
	seen.emptiedBase += kinds.emptiedBase
	seen.emptiedNew += kinds.emptiedNew
	seen.rewitnessed += kinds.rewitnessed
	return true
}

// compact renumbers the live tuples from 0, in live order: the base a
// Compact freezes.
func (m *trieModel) compact() {
	for rel := range m.rels {
		var live []value.Tuple
		m.live(rel, func(_ int, t value.Tuple) { live = append(live, t) })
		m.rels[rel] = &relModel{tuples: live, dead: map[int]bool{}, base: len(live)}
	}
}

// deleteKinds counts the deletes a history made, by what they did to a
// group.
type deleteKinds struct{ emptiedBase, emptiedNew, rewitnessed int }

// modelBatch draws a batch against the model: inserts over the probe
// domain, inserts that repeat a live pair (so that a later delete of the
// witness re-points the entry), deletes of live tuples and of a whole
// X-group.
func modelBatch(rng *rand.Rand, m *trieModel) []Op {
	var ops []Op
	for range 1 + rng.Intn(6) {
		rel, arity := "r", 3
		if rng.Intn(3) == 0 {
			rel, arity = "s", 2
		}
		var live []value.Tuple
		m.live(rel, func(_ int, t value.Tuple) { live = append(live, t) })
		switch k := rng.Intn(10); {
		case k < 4 || len(live) == 0:
			tu := make(value.Tuple, arity)
			for i := range tu {
				tu[i] = probeDomain[rng.Intn(len(probeDomain))]
			}
			ops = append(ops, Insert(rel, tu))
		case k < 6:
			tu := slices.Clone(live[rng.Intn(len(live))])
			if rng.Intn(2) == 0 {
				tu[arity-1] = probeDomain[rng.Intn(len(probeDomain))]
			}
			ops = append(ops, Insert(rel, tu))
		case k < 9:
			ops = append(ops, Delete(rel, live[rng.Intn(len(live))]))
		default:
			x := live[rng.Intn(len(live))][0]
			for _, tu := range live {
				if tu[0] == x {
					ops = append(ops, Delete(rel, tu))
				}
			}
		}
	}
	return ops
}

// checkAgainstModel requires a snapshot to read exactly what the model
// of its epoch holds: sizes, every live tuple at its position, every
// X-group of every constraint over the probe domain, batched and one at
// a time, and no other constraint. Its tries hold no group that hides
// nothing.
func checkAgainstModel(t *testing.T, rng *rand.Rand, snap *Snapshot, m *trieModel, all []schema.AccessConstraint, stage string) {
	t.Helper()
	cat := snap.st.cat
	var total int64
	for rel := range m.rels {
		var want []string
		m.live(rel, func(pos int, tu value.Tuple) { want = append(want, fmt.Sprint(pos, tu)) })
		var got []string
		if err := snap.Scan(rel, func(pos int, tu value.Tuple) bool {
			got = append(got, fmt.Sprint(pos, tu))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: epoch %d scans %s as %v, the model holds %v", stage, snap.Epoch(), rel, got, want)
		}
		if n, _ := snap.Size(rel); n != int64(len(want)) {
			t.Fatalf("%s: epoch %d sizes %s at %d, the model at %d", stage, snap.Epoch(), rel, n, len(want))
		}
		total += int64(len(want))
	}
	if snap.NumTuples() != total {
		t.Fatalf("%s: epoch %d holds %d tuples, the model %d", stage, snap.Epoch(), snap.NumTuples(), total)
	}
	for _, ac := range all {
		if !slices.ContainsFunc(m.acs, func(o schema.AccessConstraint) bool { return o.Key() == ac.Key() }) {
			if _, err := snap.Fetch(ac, make(value.Tuple, len(ac.X))); err == nil {
				t.Fatalf("%s: epoch %d serves %s, which its schema lacks", stage, snap.Epoch(), ac)
			}
			continue
		}
		xs := probeXs(rng, len(ac.X))
		got, err := snap.FetchBatch(ac, xs)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range xs {
			want := m.group(cat, ac, x)
			one, err := snap.Fetch(ac, x)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range [][]storage.IndexEntry{got[i], one} {
				have := make(map[int]string, len(g))
				for _, e := range g {
					have[e.Pos()] = e.Witness().String()
				}
				if len(g) != len(want) || fmt.Sprint(have) != fmt.Sprint(want) {
					t.Fatalf("%s: epoch %d: %s: group of %s is %v, the model's %v", stage, snap.Epoch(), ac, x, have, want)
				}
			}
		}
		// An empty leaf hides a group of the base; nothing else may be
		// empty.
		r := m.rels[ac.Rel]
		rs, _ := cat.Relation(ac.Rel)
		xPos, _ := rs.Positions(ac.X)
		for xk, g := range trieLeaves(snap, ac.Key()) {
			if g == nil {
				t.Fatalf("%s: epoch %d: %s: the trie holds a nil group under %q", stage, snap.Epoch(), ac, xk)
			}
			inBase := slices.ContainsFunc(r.tuples[:r.base], func(tu value.Tuple) bool { return value.KeyOf(tu, xPos) == xk })
			if len(g) == 0 && !inBase {
				t.Fatalf("%s: epoch %d: %s: the trie keeps the emptied group %q, which the base lacks", stage, snap.Epoch(), ac, xk)
			}
		}
	}
}

// TestTrieMatchesModel: over seeded random histories of thousands of
// commits — inserts, repeated pairs, deletes that empty a group the base
// has, deletes that empty a group written since, deletes of a witness
// whose pair survives, Compacts and an ExtendAccess — every snapshot,
// when it is current and while it stays pinned across later commits,
// reads exactly what a naive model of its epoch holds.
func TestTrieMatchesModel(t *testing.T) {
	const commits = 1500
	extension := schema.MustAccessConstraint("r", []string{"c"}, []string{"a", "b"}, 100)
	var kinds deleteKinds
	var compacts, rejected int
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		scene := probeScene(t)
		st, err := New(storage.NewDatabase(scene.cat), scene.Access(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		all := append(slices.Clone(st.Access().Constraints()), extension)
		m := &trieModel{rels: map[string]*relModel{
			"r": {dead: map[int]bool{}},
			"s": {dead: map[int]bool{}},
		}, acs: st.Access().Constraints()}
		type pin struct {
			snap *Snapshot
			m    *trieModel
		}
		var pinned []pin
		extendAt := 200 + rng.Intn(commits-400)
		for c := range commits {
			switch {
			case c == extendAt:
				if err := st.ExtendAccess(extension); err != nil {
					t.Fatal(err)
				}
				m.acs = append(slices.Clip(m.acs), extension)
			case c > 0 && rng.Intn(150) == 0:
				if _, err := st.Compact(); err != nil {
					t.Fatal(err)
				}
				m.compact()
				compacts++
			default:
				ops := modelBatch(rng, m)
				ok := m.apply(st.cat, ops, &kinds)
				_, err := st.Apply(ops)
				if ok != (err == nil) {
					t.Fatalf("seed %d, commit %d: the model admits the batch: %v; the store: %v", seed, c, ok, err)
				}
				if err != nil {
					if !errors.Is(err, ErrBound) && !errors.Is(err, ErrNoSuchTuple) {
						t.Fatal(err)
					}
					rejected++
				}
			}
			stage := fmt.Sprintf("seed %d, commit %d", seed, c)
			checkAgainstModel(t, rng, st.Snapshot(), m, all, stage)
			if rng.Intn(8) == 0 {
				pinned = append(pinned, pin{st.Snapshot(), m.clone()})
			}
			if len(pinned) > 24 {
				i := rng.Intn(len(pinned))
				pinned = slices.Delete(pinned, i, i+1)
			}
			if c%64 == 63 || c == commits-1 {
				for _, p := range pinned {
					checkAgainstModel(t, rng, p.snap, p.m, all, stage+", pinned")
				}
				checkLedger(t, st, stage)
			}
		}
	}
	if kinds.emptiedBase == 0 || kinds.emptiedNew == 0 || kinds.rewitnessed == 0 || compacts == 0 || rejected == 0 {
		t.Fatalf("the histories made %+v deletes, %d Compacts and %d rejected batches; each kind must occur", kinds, compacts, rejected)
	}
	t.Logf("deletes %+v; %d Compacts; %d rejected batches", kinds, compacts, rejected)
}

// TestTrieEqualHashes: keys whose 64-bit hashes are equal share a node
// below the last level, and are put, replaced and removed there one by
// one; the trie shrinks back to nothing.
func TestTrieEqualHashes(t *testing.T) {
	const h = 0x9e3779b97f4a7c15
	group := func(n int) []storage.IndexEntry { return make([]storage.IndexEntry, n) }
	var root *trieNode
	root = root.with([]trieEdit{{hash: h, key: "a", group: group(1)}, {hash: h, key: "b", group: group(2)}}, 0, 0)
	root = root.with([]trieEdit{{hash: h, key: "c", group: group(3)}, {hash: h ^ 1, key: "d", group: group(4)}}, 0, 0)
	root = root.with([]trieEdit{{hash: h, key: "b", group: group(5)}}, 0, 0)
	for key, n := range map[string]int{"a": 1, "b": 5, "c": 3} {
		if g, ok := root.get(h, []byte(key)); !ok || len(g) != n {
			t.Fatalf("%s: %d entries, found %v; want %d", key, len(g), ok, n)
		}
	}
	if g, ok := root.get(h^1, []byte("d")); !ok || len(g) != 4 {
		t.Fatalf("d: %d entries, found %v", len(g), ok)
	}
	if _, ok := root.get(h, []byte("d")); ok {
		t.Fatal("d found under another key's hash")
	}
	root = root.with([]trieEdit{{hash: h, key: "a"}, {hash: h, key: "b"}, {hash: h, key: "zz"}}, 0, 0)
	if g, ok := root.get(h, []byte("c")); !ok || len(g) != 3 {
		t.Fatalf("c after its neighbours left: %d entries, found %v", len(g), ok)
	}
	if _, ok := root.get(h, []byte("a")); ok {
		t.Fatal("a removed but found")
	}
	if root = root.with([]trieEdit{{hash: h, key: "c"}, {hash: h ^ 1, key: "d"}}, 0, 0); root != nil {
		t.Fatalf("a trie with every key removed is %v, want nil", root)
	}
}

// TestPinnedScanBesideDeletingCommits (run it under -race): a pinned
// snapshot's Scan and Freeze read the tombstones and insertions of their
// own epoch while commits append past them — the lists share backing
// arrays across epochs — and a snapshot pinned mid-stream reads a
// consistent epoch.
func TestPinnedScanBesideDeletingCommits(t *testing.T) {
	st := liveSocial(t, Options{})
	tuple := func(i int) value.Tuple { return strs(fmt.Sprintf("z%03d", i), "f") }
	for i := range 64 {
		if err := st.Insert("friends", tuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Delete("friends", tuple(0)); err != nil {
		t.Fatal(err)
	}
	pinned := st.Snapshot()
	want, err := pinned.Tuples("friends")
	if err != nil {
		t.Fatal(err)
	}
	const commits, reads = 400, 60
	var wg sync.WaitGroup
	errs := make(chan error, 2*reads)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range reads {
			n := 0
			pinned.Scan("friends", func(int, value.Tuple) bool { n++; return true })
			if n != len(want) {
				errs <- fmt.Errorf("read %d: the pinned snapshot scans %d tuples, it held %d", i, n, len(want))
			}
			if i%10 == 0 {
				db, err := pinned.Freeze()
				if err != nil {
					errs <- err
				} else if got := db.MustRelation("friends").Tuples; fmt.Sprint(got) != fmt.Sprint(want) {
					errs <- fmt.Errorf("read %d: the pinned snapshot freezes to %d tuples, it held %d", i, len(got), len(want))
				}
			}
			cur := st.Snapshot()
			size, _ := cur.Size("friends")
			m := 0
			cur.Scan("friends", func(int, value.Tuple) bool { m++; return true })
			if int64(m) != size {
				errs <- fmt.Errorf("read %d: epoch %d scans %d friends, its size is %d", i, cur.Epoch(), m, size)
			}
		}
	}()
	for i := range commits {
		ops := []Op{Delete("friends", tuple(1+i%63)), Insert("friends", tuple(1+i%63))}
		if _, err := st.Apply(ops); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got, _ := pinned.Tuples("friends"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the pinned snapshot changed under %d commits", commits)
	}
}
