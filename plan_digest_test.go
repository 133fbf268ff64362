// TestPlanDigestUnchanged pins the planner's output over a seeded corpus
// of random catalogs, access schemas, statistics and queries: one SHA-256
// over every plan's rendering and the exact bits of every estimate, at
// all three tiers. The digest was recorded before the cost model moved to
// precomputed per-act tables and bitsets, so it fails on any change of a
// firing order, a tie-break, a witness or the order of a floating-point
// product — the things a faster cost model must leave alone.
package bcq

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// planDigest is the SHA-256 of digestCorpus's rendering at the commit
// before the array-based cost model. A mismatch logs one short digest per
// case; the same log taken at the old commit locates the cases that moved.
const planDigest = "5215260bbbce6df13ebb253ae3f4682da2aab8586806d991f023ff3405560ce7"

// digestCases is the corpus size; about three in five of the generated
// queries are effectively bounded and reach the cost model, the rest pin
// the rejection path.
const digestCases = 300

var digestAttrs = []string{"a", "b", "c", "d"}

// digestCase draws one catalog, access schema, statistics snapshot (nil
// for one case in six) and query text.
func digestCase(t *testing.T, rng *rand.Rand) (*Catalog, *AccessSchema, *CardStats, string) {
	t.Helper()
	nRel := 2 + rng.Intn(3)
	rels := make([]*Relation, nRel)
	arity := make([]int, nRel)
	for r := range rels {
		arity[r] = 2 + rng.Intn(3)
		rel, err := NewRelation(fmt.Sprintf("r%d", r), digestAttrs[:arity[r]]...)
		if err != nil {
			t.Fatal(err)
		}
		rels[r] = rel
	}
	cat, err := NewCatalog(rels...)
	if err != nil {
		t.Fatal(err)
	}

	acc, err := NewAccessSchema()
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{1, 3, 20, 500, 100000}
	for r := 0; r < nRel; r++ {
		for k := 2 + rng.Intn(4); k > 0; k-- {
			perm := rng.Perm(arity[r])
			nx := rng.Intn(min(3, arity[r]))
			if rng.Intn(8) == 0 {
				nx = 0
			}
			ny := 1 + rng.Intn(arity[r]-nx)
			var x, y []string
			for _, p := range perm[:nx] {
				x = append(x, digestAttrs[p])
			}
			for _, p := range perm[nx : nx+ny] {
				y = append(y, digestAttrs[p])
			}
			ac, err := NewAccessConstraint(fmt.Sprintf("r%d", r), x, y, bounds[rng.Intn(len(bounds))])
			if err != nil {
				t.Fatal(err)
			}
			_ = acc.Add(ac) // a duplicate draw is simply not added
		}
	}

	var cs *CardStats
	if rng.Intn(6) != 0 {
		snap := CardStats{ACs: map[string]ACCard{}}
		for _, ac := range acc.Constraints() {
			switch rng.Intn(8) {
			case 0: // the statistics are silent on this constraint
				continue
			case 1: // observed empty
				snap.ACs[ac.Key()] = ACCard{}
				continue
			}
			groups := int64(1 + rng.Intn(5000))
			per := 1 + rng.Int63n(min(ac.N, 40))
			entries := groups + rng.Int63n(groups*per)
			snap.ACs[ac.Key()] = ACCard{Groups: groups, Entries: entries, MaxGroup: min(ac.N, per*2)}
		}
		cs = &snap
	}

	nAtoms := 2 + rng.Intn(5)
	atomRel := make([]int, nAtoms)
	var from, conds, out []string
	ref := func(i int) string {
		return fmt.Sprintf("t%d.%s", i+1, digestAttrs[rng.Intn(arity[atomRel[i]])])
	}
	for i := range atomRel {
		atomRel[i] = rng.Intn(nRel)
		from = append(from, fmt.Sprintf("r%d as t%d", atomRel[i], i+1))
		if i > 0 {
			// Connect every atom to an earlier one.
			conds = append(conds, ref(i)+" = "+ref(rng.Intn(i)))
		}
	}
	for k := rng.Intn(3); k > 0; k-- {
		conds = append(conds, ref(rng.Intn(nAtoms))+" = "+ref(rng.Intn(nAtoms)))
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		if rng.Intn(4) == 0 {
			conds = append(conds, fmt.Sprintf("%s = 'v%d'", ref(rng.Intn(nAtoms)), rng.Intn(3)))
		} else {
			conds = append(conds, fmt.Sprintf("%s = %d", ref(rng.Intn(nAtoms)), rng.Intn(3)))
		}
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		out = append(out, ref(rng.Intn(nAtoms)))
	}
	text := "select " + strings.Join(out, ", ") + " from " + strings.Join(from, ", ") + " where " + strings.Join(conds, " and ")
	return cat, acc, cs, text
}

// digestCorpus renders the whole corpus: per case the access schema, the
// query, and each tier's plan with its estimates' bits. perCase holds a
// short digest of each case's part of the rendering.
func digestCorpus(t *testing.T) (rendering string, perCase []string, planned int) {
	t.Helper()
	var b strings.Builder
	for i := 0; i < digestCases; i++ {
		start := b.Len()
		cat, acc, cs, text := digestCase(t, rand.New(rand.NewSource(int64(7919*i+13))))
		fmt.Fprintf(&b, "== case %d\n%s\n%s\n", i, acc, text)
		q, err := ParseQuery(text, cat)
		if err != nil {
			t.Fatalf("case %d: %v\n%s", i, err, text)
		}
		a, err := Analyze(cat, q, acc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if _, err := a.Plan(); err == nil {
			planned++
		}
		renderTiers(&b, a, cs)
		for _, build := range []func() (*Plan, error){
			func() (*Plan, error) { return a.GreedyPlan(cs) },
			func() (*Plan, error) { return a.OptimizedPlan(cs) },
		} {
			p, err := build()
			if err != nil {
				continue
			}
			fmt.Fprintf(&b, "bits %s %x", p.Tier, math.Float64bits(p.EstFetch))
			for _, st := range p.Steps {
				fmt.Fprintf(&b, " %x/%x", math.Float64bits(st.EstLookups), math.Float64bits(st.EstFetch))
			}
			for _, vs := range p.Verifies {
				fmt.Fprintf(&b, " v%x/%x", math.Float64bits(vs.EstLookups), math.Float64bits(vs.EstFetch))
			}
			b.WriteByte('\n')
		}
		sum := sha256.Sum256([]byte(b.String()[start:]))
		perCase = append(perCase, hex.EncodeToString(sum[:4]))
	}
	return b.String(), perCase, planned
}

func TestPlanDigestUnchanged(t *testing.T) {
	rendering, perCase, planned := digestCorpus(t)
	if planned < digestCases/2 {
		t.Errorf("only %d of %d generated queries plan: the corpus no longer exercises the cost model", planned, digestCases)
	}
	sum := sha256.Sum256([]byte(rendering))
	if got := hex.EncodeToString(sum[:]); got != planDigest {
		t.Errorf("plan digest %s, want %s: some plan or estimate changed (%d of %d cases plan)\nper-case digests: %s",
			got, planDigest, planned, digestCases, strings.Join(perCase, " "))
	}
}
