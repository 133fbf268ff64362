// Plan-identity goldens for the ad hoc shape families: the twelve
// literal-inlined join shapes of three to six atoms under testdata/adhoc/
// (the texts the repository's benchmark sends as adhoc_shapes, copied),
// over the five-relation social schema, planned at all three tiers
// against the statistics of a small seeded scene. The goldens were
// recorded before the planner's cost model moved to precomputed tables;
// any change to a firing order, a witness or an estimate shows as a diff.
// Regenerate deliberately with
//
//	go test -run TestAdhocShapePlansUnchanged -update ./
package bcq

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// adhocScene loads testdata/adhoc/scene.ddl with a seeded social graph of
// 300 users and 120 albums: groups far below the declared bounds and of
// uneven sizes, as in the benchmark's scene, so observed and declared
// cardinalities disagree everywhere.
func adhocScene(t testing.TB) (*Catalog, *AccessSchema, *Database) {
	t.Helper()
	src, err := os.ReadFile("testdata/adhoc/scene.ddl")
	if err != nil {
		t.Fatal(err)
	}
	cat, acc, err := ParseDDL(string(src))
	if err != nil {
		t.Fatal(err)
	}
	const users, albums = 300, 120
	rng := rand.New(rand.NewSource(20140901))
	db := NewDatabase(cat)
	seen := map[string]bool{}
	ins := func(rel string, vals ...int) {
		t.Helper()
		key := fmt.Sprint(rel, vals)
		if seen[key] {
			return
		}
		seen[key] = true
		tu := make(Tuple, len(vals))
		for i, v := range vals {
			tu[i] = Int(int64(v))
		}
		if err := db.Insert(rel, tu); err != nil {
			t.Fatal(err)
		}
	}
	friends := make([][]int, users)
	for u := 0; u < users; u++ {
		for k := 3 + rng.Intn(6); k > 0; k-- {
			f := rng.Intn(users)
			friends[u] = append(friends[u], f)
			ins("friends", u, f)
		}
	}
	photo := 0
	for a := 0; a < albums; a++ {
		owner := rng.Intn(users)
		ins("album_owner", a, owner)
		taggedOnce := map[[2]int]bool{}
		for k := 4 + rng.Intn(12); k > 0; k-- {
			ins("in_album", photo, a)
			// One tagger per (photo, taggee): the taggee is someone who has
			// the tagger as a friend.
			taggee := rng.Intn(users)
			if pt := [2]int{photo, taggee}; !taggedOnce[pt] {
				taggedOnce[pt] = true
				ins("tagging", photo, friends[taggee][rng.Intn(len(friends[taggee]))], taggee)
			}
			for l := rng.Intn(4); l > 0; l-- {
				ins("likes", rng.Intn(users), photo)
			}
			photo++
		}
	}
	if err := db.EnsureIndexes(acc); err != nil {
		t.Fatal(err)
	}
	return cat, acc, db
}

// renderTiers renders one analysis at the three tiers, estimates
// included; a rejection renders as its error.
func renderTiers(b *strings.Builder, a *Analysis, cs *CardStats) {
	tiers := []struct {
		name string
		plan func() (*Plan, error)
	}{
		{"naive", func() (*Plan, error) {
			p, err := a.Plan()
			if err == nil {
				AnnotateEstimates(p, cs)
			}
			return p, err
		}},
		{"greedy", func() (*Plan, error) { return a.GreedyPlan(cs) }},
		{"optimized", func() (*Plan, error) { return a.OptimizedPlan(cs) }},
	}
	for _, tier := range tiers {
		fmt.Fprintf(b, "-- %s\n", tier.name)
		p, err := tier.plan()
		if err != nil {
			fmt.Fprintf(b, "rejected: %v\n", err)
			continue
		}
		b.WriteString(p.ExplainOpts(ExplainOptions{Estimates: true}))
	}
}

func TestAdhocShapePlansUnchanged(t *testing.T) {
	cat, acc, db := adhocScene(t)
	cs := db.CardStats()
	files, err := filepath.Glob("testdata/adhoc/s*.sql")
	if err != nil || len(files) != 12 {
		t.Fatalf("want twelve shape files under testdata/adhoc, got %d (%v)", len(files), err)
	}
	var b strings.Builder
	for _, f := range files {
		q := readQuery(t, f, cat)
		a, err := Analyze(cat, q, acc)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n", q.Name)
		renderTiers(&b, a, &cs)
		b.WriteByte('\n')
	}
	// testdata/adhoc/plans.golden, through the conformance suite's helper
	// (which resolves names under testdata/plans).
	checkGolden(t, "../adhoc/plans", b.String())
}
