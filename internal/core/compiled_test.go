package core

import (
	"strings"
	"testing"

	"bcq/internal/schema"
	"bcq/internal/spc"
)

// TestAnalysisSeesAccessSchemaAdd: a constraint added to a schema an
// analysis has already compiled is part of the next analysis — Example 8's
// A1 is not enough for Q0, A1 plus the tagging constraint is A0.
func TestAnalysisSeesAccessSchemaAdd(t *testing.T) {
	cat := socialCatalog()
	acc := accessA1()
	an, err := NewAnalysis(cat, spc.MustParse(q0src, cat), acc)
	if err != nil {
		t.Fatal(err)
	}
	if an.EBCheck().EffectivelyBounded {
		t.Fatal("Q0 effectively bounded under A1")
	}
	if err := acc.Add(schema.MustAccessConstraint("tagging", []string{"photo_id", "taggee_id"}, []string{"tagger_id"}, 1)); err != nil {
		t.Fatal(err)
	}
	an, err = NewAnalysis(cat, spc.MustParse(q0src, cat), acc)
	if err != nil {
		t.Fatal(err)
	}
	if eb := an.EBCheck(); !eb.EffectivelyBounded {
		t.Fatalf("Q0 not effectively bounded after the tagging constraint was added: %+v", eb)
	}
	if len(an.Acts) != 3 {
		t.Errorf("%d acts, want 3: the compiled schema predates Add", len(an.Acts))
	}
}

// TestAnalysisSeesCatalogAdd: a schema rejected for naming a relation the
// catalog lacks is accepted once the catalog gains it — the verdict kept
// with the compiled schema belongs to the catalog as it was.
func TestAnalysisSeesCatalogAdd(t *testing.T) {
	cat := socialCatalog()
	acc := accessA0()
	if err := acc.Add(schema.MustAccessConstraint("likes", []string{"user_id"}, []string{"photo_id"}, 20)); err != nil {
		t.Fatal(err)
	}
	q := spc.MustParse(q0src, cat)
	if _, err := NewAnalysis(cat, q, acc); err == nil || !strings.Contains(err.Error(), "unknown relation likes") {
		t.Fatalf("schema with a constraint on a missing relation: err = %v", err)
	}
	if err := cat.Add(schema.MustRelation("likes", "user_id", "photo_id")); err != nil {
		t.Fatal(err)
	}
	an, err := NewAnalysis(cat, q, acc)
	if err != nil {
		t.Fatalf("after the catalog gained the relation: %v", err)
	}
	if !an.EBCheck().EffectivelyBounded {
		t.Error("Q0 not effectively bounded under A0 plus an unrelated constraint")
	}
	lq := spc.MustParse(`select l.photo_id from likes as l where l.user_id = 'u0'`, cat)
	an, err = NewAnalysis(cat, lq, acc)
	if err != nil {
		t.Fatal(err)
	}
	if !an.EBCheck().EffectivelyBounded {
		t.Error("a lookup over the added relation's constraint is not effectively bounded")
	}
}
