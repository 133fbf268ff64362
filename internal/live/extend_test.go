package live

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/storage"
)

// taggingByTagger is a constraint the social scene satisfies but the
// initial schema does not grant: each tagger key identifies at most
// bound photos.
func taggingByTagger(n int64) schema.AccessConstraint {
	return schema.MustAccessConstraint("tagging", []string{"tagger_id"}, []string{"photo_id"}, n)
}

// TestExtendAccessServesLiveData: the extension's groups must reflect
// exactly the live data at the extension epoch — base tuples minus
// tombstones plus insertions — with first-live-occurrence witnesses.
func TestExtendAccessServesLiveData(t *testing.T) {
	st := liveSocial(t, Options{})
	// Churn before the extension: delete a base tuple, add a new one.
	if err := st.Delete("tagging", strs("p2", "s9", "u0")); err != nil {
		t.Fatal(err)
	}
	if err := st.Insert("tagging", strs("p9", "f1", "u1")); err != nil {
		t.Fatal(err)
	}

	ac := taggingByTagger(5)
	if err := st.ExtendAccess(ac); err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	got, err := snap.Fetch(ac, strs("f1"))
	if err != nil {
		t.Fatal(err)
	}
	var photos []string
	for _, e := range got {
		photos = append(photos, e.Witness()[0].AsString()) // photo_id, the constraint's Y
	}
	sort.Strings(photos)
	if want := []string{"p1", "p3", "p9"}; !reflect.DeepEqual(photos, want) {
		t.Errorf("f1 group = %v, want %v", photos, want)
	}
	// The deleted base tuple's group must not resurface.
	gone, err := snap.Fetch(ac, strs("s9"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gone) != 0 {
		t.Errorf("s9 group = %v, want empty (its only tuple was deleted pre-extension)", ys(ac, gone))
	}

	// The extension epoch must agree with a from-scratch rebuild.
	frozen, err := snap.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := frozen.AccessIndexFor(ac)
	if !ok {
		t.Fatal("frozen snapshot lacks the extended index")
	}
	fg := idx.Lookup(strs("f1"))
	if len(fg) != len(got) {
		t.Fatalf("frozen group has %d entries, live %d", len(fg), len(got))
	}
	for i := range fg {
		if !fg[i].Witness().Equal(got[i].Witness()) {
			t.Errorf("entry %d: frozen %v vs live %v (witness drift)", i, fg[i].Witness(), got[i].Witness())
		}
	}
}

// TestExtendAccessSnapshotIsolation: snapshots pinned before the
// extension must keep erroring on the new constraint; writes after the
// extension must maintain its groups.
func TestExtendAccessSnapshotIsolation(t *testing.T) {
	st := liveSocial(t, Options{})
	pre := st.Snapshot()
	ac := taggingByTagger(5)
	if err := st.ExtendAccess(ac); err != nil {
		t.Fatal(err)
	}
	if _, err := pre.Fetch(ac, strs("f1")); err == nil {
		t.Error("pre-extension snapshot served the new constraint")
	}
	if pre.Access().Size() != accessA0().Size() {
		t.Error("pre-extension snapshot's schema grew")
	}

	// Post-extension writes maintain the new index incrementally.
	if err := st.Insert("tagging", strs("p7", "f1", "u1")); err != nil {
		t.Fatal(err)
	}
	g, err := st.Snapshot().Fetch(ac, strs("f1"))
	if err != nil {
		t.Fatal(err)
	}
	var photos []string
	for _, e := range g {
		photos = append(photos, e.Witness()[0].AsString()) // photo_id, the constraint's Y
	}
	sort.Strings(photos)
	if want := []string{"p1", "p3", "p7"}; !reflect.DeepEqual(photos, want) {
		t.Errorf("post-extension group = %v, want %v", photos, want)
	}
	// ... and the new bound is enforced on ingest.
	if err := st.ExtendAccess(taggingByTagger(5)); err != nil {
		t.Fatal("re-extension must be a no-op, got", err)
	}
	tight := schema.MustAccessConstraint("tagging", []string{"taggee_id"}, []string{"photo_id"}, 5)
	if err := st.ExtendAccess(tight); err != nil {
		t.Fatal(err)
	}
	// taggee u0 already has 4 distinct photos (p1, p2, p4, p3); two more
	// distinct ones exceed the bound of 5.
	if err := st.Insert("tagging", strs("pA", "zz", "u0")); err != nil {
		t.Fatal(err)
	}
	err = st.Insert("tagging", strs("pB", "zz", "u0"))
	if !errors.Is(err, ErrBound) {
		t.Errorf("insert past the extended bound: got %v, want ErrBound", err)
	}
}

// TestExtendAccessSurvivesCompactAndFlatten: the extension's trie must
// survive the commits that path-copy it and a compaction that folds it
// into the base. (The name is older than the trie: the commits once
// flattened a chain of diffs.)
func TestExtendAccessSurvivesCompactAndFlatten(t *testing.T) {
	st := liveSocial(t, Options{})
	ac := taggingByTagger(50)
	if err := st.ExtendAccess(ac); err != nil {
		t.Fatal(err)
	}
	const commits = 20
	for i := 0; i < commits; i++ {
		if err := st.Insert("tagging", strs(fmt.Sprintf("q%d", i), "f1", "u3")); err != nil {
			t.Fatal(err)
		}
	}
	g, err := st.Snapshot().Fetch(ac, strs("f1"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + commits; len(g) != want {
		t.Errorf("f1 group after %d commits = %d entries, want %d", commits, len(g), want)
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	g2, err := st.Snapshot().Fetch(ac, strs("f1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g2) != len(g) {
		t.Errorf("compaction changed the extended group: %d vs %d entries", len(g2), len(g))
	}
	ig := st.IngestStats()
	if ig.Extensions != 1 {
		t.Errorf("Extensions = %d, want 1", ig.Extensions)
	}
}

// TestStagedExtensionRefusesStaleCommit: a staged extension whose store
// advanced in between must not publish a verdict validated against old
// data.
func TestStagedExtensionRefusesStaleCommit(t *testing.T) {
	st := liveSocial(t, Options{})
	se, err := st.StageExtension(taggingByTagger(5))
	if err != nil || se == nil {
		t.Fatalf("stage: %v (staged %v)", err, se)
	}
	if err := st.Insert("tagging", strs("p8", "f7", "u2")); err != nil {
		t.Fatal(err)
	}
	if err := se.Commit(); err == nil {
		t.Fatal("stale staged extension committed")
	}
	if st.Access().Size() != accessA0().Size() {
		t.Errorf("refused commit grew the schema to %d constraints", st.Access().Size())
	}
	// Re-staging against the advanced store succeeds.
	se2, err := st.StageExtension(taggingByTagger(5))
	if err != nil || se2 == nil {
		t.Fatalf("re-stage: %v", err)
	}
	if err := se2.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Access().Size() != accessA0().Size()+1 {
		t.Error("re-staged extension did not publish")
	}
}

// TestExtendAccessValidation: structural errors and bound violations
// reject the extension atomically.
func TestExtendAccessValidation(t *testing.T) {
	st := liveSocial(t, Options{})
	epoch := st.Epoch()

	if err := st.ExtendAccess(schema.MustAccessConstraint("nope", []string{"a"}, []string{"b"}, 1)); err == nil {
		t.Error("unknown relation accepted")
	}
	var verr *storage.ViolationError
	// tagger f1 has two photos in the base; N=1 is violated.
	if err := st.ExtendAccess(taggingByTagger(1)); !errors.As(err, &verr) {
		t.Errorf("violated bound: got %v, want *storage.ViolationError", err)
	}
	if st.Epoch() != epoch {
		t.Errorf("failed extensions advanced the epoch %d -> %d", epoch, st.Epoch())
	}
	if st.Access().Size() != accessA0().Size() {
		t.Errorf("failed extensions grew the schema to %d constraints", st.Access().Size())
	}
}
