package shard_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"bcq/internal/core"
	"bcq/internal/exec"
	"bcq/internal/live"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// extendScene builds a 3-attribute partitioned relation part(k, v, w)
// with constraint (k) -> (v, 10) and deterministic data, loaded into a
// fresh database per call so the sharded store and the single-store
// baseline each get their own copy.
func extendScene(t *testing.T) (*schema.Catalog, *schema.AccessSchema, func() *storage.Database) {
	t.Helper()
	cat, err := schema.NewCatalog(mustRel(t, "part", "k", "v", "w"))
	if err != nil {
		t.Fatal(err)
	}
	acc := schema.MustAccessSchema(schema.MustAccessConstraint("part", []string{"k"}, []string{"v"}, 10))
	build := func() *storage.Database {
		db := storage.NewDatabase(cat)
		for i := 0; i < 12; i++ {
			for j := 0; j < 3; j++ {
				tu := value.Tuple{str(fmt.Sprintf("k%d", i)), str(fmt.Sprintf("v%d", j)), str(fmt.Sprintf("w%d", (i+j)%4))}
				if err := db.Insert("part", tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		return db
	}
	return cat, acc, build
}

// TestExtendAccessShardConsistent: extending a partitioned relation with
// a constraint whose X contains the shard key must succeed on every
// shard, advance every shard's epoch (so the engine's version moves),
// and serve scatter-gather answers identical to a single store extended
// the same way.
func TestExtendAccessShardConsistent(t *testing.T) {
	cat, acc, build := extendScene(t)
	ss, err := shard.New(build(), acc, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	single, err := live.New(build(), acc, live.Options{})
	if err != nil {
		t.Fatal(err)
	}

	ac := schema.MustAccessConstraint("part", []string{"k"}, []string{"w"}, 10)
	preVersion := ss.SchemaVersion()
	if err := ss.ExtendAccess(ac); err != nil {
		t.Fatal(err)
	}
	if err := single.ExtendAccess(ac); err != nil {
		t.Fatal(err)
	}
	if ss.SchemaVersion() <= preVersion {
		t.Errorf("extension did not advance the schema version (%d -> %d)", preVersion, ss.SchemaVersion())
	}
	if ss.Access().Size() != acc.Size()+1 {
		t.Errorf("schema has %d constraints, want %d", ss.Access().Size(), acc.Size()+1)
	}
	if ig := ss.IngestStats(); ig.Extensions != 3 {
		t.Errorf("Extensions = %d, want one per shard", ig.Extensions)
	}

	// A plan that uses the new constraint answers identically on the
	// sharded view and the single store.
	q, err := spc.Parse(`select w from part where k = 'k5'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalysis(cat, q, ss.Access())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Run(pl, ss.View())
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(pl, single.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) {
		t.Errorf("sharded answer %s, single-store answer %s", render(got), render(want))
	}
	if len(got.Tuples) == 0 {
		t.Error("extended-constraint query returned no answers")
	}
}

// TestExtendAccessAtOneShardTakesAnyX: one shard cannot split a group, so
// a one-shard store takes a constraint whose X lacks the shard key (which
// TestExtendAccessPlacementGuards shows a three-shard store refuses), and
// answers through it as a single store does.
func TestExtendAccessAtOneShardTakesAnyX(t *testing.T) {
	cat, acc, build := extendScene(t)
	ac := schema.MustAccessConstraint("part", []string{"v"}, []string{"w"}, 10)
	ss, err := shard.New(build(), acc, shard.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	single, err := live.New(build(), acc, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.ExtendAccess(ac); err != nil {
		t.Fatalf("one-shard store refused %s: %v", ac, err)
	}
	if err := single.ExtendAccess(ac); err != nil {
		t.Fatal(err)
	}
	q, err := spc.Parse(`select w from part where v = 'v1'`, cat)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.NewAnalysis(cat, q, ss.Access())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.QPlan(an)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Run(pl, ss.View())
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(pl, single.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if render(got) != render(want) || len(got.Tuples) == 0 {
		t.Errorf("one-shard answer %s, single-store answer %s", render(got), render(want))
	}
}

// TestExtendAccessPlacementGuards: extensions that would break the
// placement invariant are rejected whole.
func TestExtendAccessPlacementGuards(t *testing.T) {
	cat, err := schema.NewCatalog(
		mustRel(t, "part", "k", "v", "w"),
		mustRel(t, "free", "f", "g"),
	)
	if err != nil {
		t.Fatal(err)
	}
	acc := schema.MustAccessSchema(schema.MustAccessConstraint("part", []string{"k"}, []string{"v"}, 10))
	db := storage.NewDatabase(cat)
	ss, err := shard.New(db, acc, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}

	// X does not contain the shard key (k): groups could span shards.
	if err := ss.ExtendAccess(schema.MustAccessConstraint("part", []string{"v"}, []string{"w"}, 10)); err == nil {
		t.Error("constraint without the shard key accepted on a partitioned relation")
	}
	// A relation created without constraints is partitioned by all its
	// attributes, which (f) lacks; the refusal says to rebuild.
	if got, _ := ss.PlacementOf("free"); got != "partitioned by (f, g)" {
		t.Errorf("placement of free = %q", got)
	}
	err = ss.ExtendAccess(schema.MustAccessConstraint("free", []string{"f"}, []string{"g"}, 10))
	if err == nil || !strings.Contains(err.Error(), "rebuild the store") {
		t.Errorf("constraint without the all-attributes key on a constraint-less relation: got %v, want a refusal saying to rebuild", err)
	}
	// Wider X containing the key is fine; re-extension is a no-op.
	wide := schema.MustAccessConstraint("part", []string{"k", "v"}, []string{"w"}, 10)
	if err := ss.ExtendAccess(wide); err != nil {
		t.Fatal(err)
	}
	if err := ss.ExtendAccess(wide); err != nil {
		t.Fatal("re-extension must be a no-op, got", err)
	}
	if ss.Access().Size() != 2 {
		t.Errorf("schema has %d constraints, want 2", ss.Access().Size())
	}
}

// TestExtendAccessViolationIsAtomic: when some shard's data violates the
// new bound, no shard may commit the extension.
func TestExtendAccessViolationIsAtomic(t *testing.T) {
	cat, err := schema.NewCatalog(mustRel(t, "part", "k", "v", "w"))
	if err != nil {
		t.Fatal(err)
	}
	acc := schema.MustAccessSchema(schema.MustAccessConstraint("part", []string{"k"}, []string{"v"}, 10))
	db := storage.NewDatabase(cat)
	// Two tuples sharing k (same shard, same group) with distinct w: the
	// (k) -> (w, 1) extension is violated on exactly one shard.
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		if err := db.Insert("part", value.Tuple{str(k), str("v0"), str("w0")}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("part", value.Tuple{str(k), str("v1"), str("w" + fmt.Sprint(i%2))}); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := shard.New(db, acc, shard.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	epochs := ss.View().Epochs()
	var verr *storage.ViolationError
	if err := ss.ExtendAccess(schema.MustAccessConstraint("part", []string{"k"}, []string{"w"}, 1)); !errors.As(err, &verr) {
		t.Fatalf("got %v, want *storage.ViolationError", err)
	}
	if ss.Access().Size() != 1 {
		t.Errorf("failed extension grew the schema to %d constraints", ss.Access().Size())
	}
	for s, e := range ss.View().Epochs() {
		if e != epochs[s] {
			t.Errorf("shard %d epoch moved %d -> %d on a failed extension", s, epochs[s], e)
		}
	}
	if ig := ss.IngestStats(); ig.Extensions != 0 {
		t.Errorf("Extensions = %d after a failed extension, want 0", ig.Extensions)
	}
}
