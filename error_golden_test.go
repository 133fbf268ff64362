// Error-text goldens: every diagnostic that parsing, analysis and
// preparation return for a malformed query, a schema that does not match
// the catalog or a shape with no bounded plan, byte for byte. The texts
// were recorded before name resolution moved to parse time; any change to
// a message, or to which of several faults is reported first, shows as a
// diff. Regenerate deliberately with
//
//	go test -run TestErrorTextsUnchanged -update ./
package bcq

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bcq/internal/core"
	"bcq/internal/engine"
	"bcq/internal/schema"
	"bcq/internal/spc"
	"bcq/internal/value"
)

const errorsGolden = "testdata/errors.golden"

// errorTextCases renders every case as "label: error text" lines.
func errorTextCases(t *testing.T) string {
	t.Helper()
	cat, acc, db := adhocScene(t)
	eng, err := engine.New(cat, acc, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	line := func(label string, err error) {
		if err == nil {
			t.Errorf("%s: no error", label)
			fmt.Fprintf(&b, "%s: <nil>\n", label)
			return
		}
		fmt.Fprintf(&b, "%s: %s\n", label, err)
	}

	// Texts: spc.Parse and Engine.Prepare report the same error.
	texts := []struct{ label, text string }{
		{"unknown relation (qualified)", "select x.photo_id from nope as x"},
		{"unknown relation (bare)", "select photo_id from nope"},
		{"unknown relation after a known one", "select t1.photo_id from in_album as t1, nope as t2 where t1.album_id = 5"},
		{"unknown attribute in select", "select t1.nope from in_album as t1 where t1.album_id = 5"},
		{"unknown attribute in where", "select t1.photo_id from in_album as t1 where t1.nope = 5"},
		{"unknown attribute on the right of where", "select t1.photo_id from in_album as t1, friends as t2 where t1.album_id = 5 and t1.photo_id = t2.nope"},
		{"unknown attribute in a placeholder", "select t1.photo_id from in_album as t1 where t1.nope = ?"},
		{"unknown bare attribute", "select nope from in_album"},
		{"ambiguous bare attribute", "select user_id from friends, album_owner"},
		{"unknown alias", "select t9.photo_id from in_album as t1"},
		{"duplicate alias", "select t1.photo_id from in_album as t1, friends as t1 where t1.album_id = 5"},
		{"duplicate default alias", "select in_album.photo_id from in_album, in_album where in_album.album_id = 5"},
		{"null constant", "select t1.photo_id from in_album as t1 where t1.album_id = null"},
		{"unknown attribute and duplicate alias", "select t1.nope from in_album as t1, friends as t1"},
		{"syntax", "select t1.photo_id from in_album as t1 where t1.album_id < 5"},
	}
	for _, c := range texts {
		_, err := spc.Parse(c.text, cat)
		line("parse/"+c.label, err)
		_, err = eng.Prepare(c.text)
		line("prepare/"+c.label, err)
	}

	// Hand-built queries: core.NewAnalysis and Engine.PrepareQuery
	// validate them.
	ref := func(atom int, attr string) spc.AttrRef { return spc.AttrRef{Atom: atom, Attr: attr} }
	album := func() *spc.Query {
		return &spc.Query{
			Name:     "hand",
			Atoms:    []spc.Atom{{Rel: "in_album", Alias: "t1"}},
			EqConsts: []spc.EqConst{{A: ref(0, "album_id"), C: value.Int(5)}},
			Output:   []spc.OutputCol{{Ref: ref(0, "photo_id")}},
		}
	}
	built := []struct {
		label string
		edit  func(q *spc.Query)
	}{
		{"no atoms", func(q *spc.Query) { q.Atoms = nil }},
		{"unknown relation", func(q *spc.Query) { q.Atoms[0].Rel = "nope" }},
		{"duplicate alias", func(q *spc.Query) { q.Atoms = append(q.Atoms, spc.Atom{Rel: "friends", Alias: "t1"}) }},
		{"out-of-range reference in output", func(q *spc.Query) { q.Output[0].Ref.Atom = 3 }},
		{"negative reference in a condition", func(q *spc.Query) { q.EqConsts[0].A.Atom = -1 }},
		{"out-of-range reference in a join", func(q *spc.Query) {
			q.EqAttrs = append(q.EqAttrs, spc.EqAttr{L: ref(0, "photo_id"), R: ref(1, "photo_id")})
		}},
		{"out-of-range placeholder", func(q *spc.Query) { q.Placeholders = append(q.Placeholders, ref(2, "album_id")) }},
		{"unknown attribute in output", func(q *spc.Query) { q.Output[0].Ref.Attr = "nope" }},
		{"unknown attribute in a condition", func(q *spc.Query) { q.EqConsts[0].A.Attr = "nope" }},
		{"null constant", func(q *spc.Query) { q.EqConsts[0].C = value.Null }},
		{"null constant before a bad output", func(q *spc.Query) {
			q.EqConsts[0].C = value.Null
			q.Output[0].Ref.Attr = "nope"
		}},
	}
	for _, c := range built {
		q := album()
		c.edit(q)
		_, err := core.NewAnalysis(cat, q.Clone(), acc)
		line("analyze/"+c.label, err)
		_, err = eng.PrepareQuery(q)
		line("prepare-query/"+c.label, err)
	}
	{
		q := album()
		_, err := core.NewAnalysis(cat, q.Instantiate(map[spc.AttrRef]value.Value{ref(4, "album_id"): value.Int(1)}), acc)
		line("analyze/instantiated out of range", err)
		_, err = core.NewAnalysis(cat, q.Instantiate(map[spc.AttrRef]value.Value{ref(0, "nope"): value.Int(1)}), acc)
		line("analyze/instantiated unknown attribute", err)
	}

	// Access schemas that do not match the catalog: core.NewAnalysis and
	// engine construction reject them.
	bad := []struct {
		label string
		ac    schema.AccessConstraint
	}{
		{"unknown attribute in X", schema.MustAccessConstraint("in_album", []string{"nope"}, []string{"photo_id"}, 3)},
		{"unknown attribute in Y", schema.MustAccessConstraint("in_album", []string{"album_id"}, []string{"photo_id", "zz"}, 3)},
		{"unknown relation", schema.MustAccessConstraint("nope", []string{"a"}, []string{"b"}, 3)},
	}
	for _, c := range bad {
		bacc := schema.MustAccessSchema(append(append([]schema.AccessConstraint(nil), acc.Constraints()...), c.ac)...)
		q := spc.MustParse("select t1.photo_id from in_album as t1 where t1.album_id = 5", cat)
		_, err := core.NewAnalysis(cat, q, bacc)
		line("analyze/access constraint with "+c.label, err)
		_, err = engine.New(cat, bacc, db, engine.Options{})
		line("engine/access constraint with "+c.label, err)
	}

	// Shapes without a bounded plan: the preparation error carries
	// EBCheck's diagnosis, and the dominating-parameter searches name the
	// parameters to instantiate or explain why none help.
	notEB := []struct{ label, text string }{
		{"missing classes and unindexed atoms", "select t3.photo_id from tagging as t3 where t3.tagger_id = 5"},
		{"missing classes only", "select t2.user_id from likes as t2"},
		{"missing classes, a dominating parameter", "select t1.photo_id, t1.album_id from in_album as t1"},
		{"missing classes and an unindexed join", "select t2.friend_id, t1.photo_id from friends as t2, in_album as t1 where t2.user_id = 7"},
		{"unindexed atoms only", "select t3.tagger_id from tagging as t3 where t3.tagger_id = 5"},
		{"missing classes over a join", "select t1.photo_id, t3.tagger_id from in_album as t1, tagging as t3 where t1.photo_id = t3.photo_id"},
		{"template", "select t1.photo_id from in_album as t1, likes as t2 where t2.photo_id = t1.photo_id and t2.user_id = ?"},
	}
	for _, c := range notEB {
		_, err := eng.Prepare(c.text)
		line("prepare/not effectively bounded: "+c.label, err)
		_, err = eng.PrepareQuery(spc.MustParse(c.text, cat))
		line("prepare-query/not effectively bounded: "+c.label, err)
		an, err := core.NewAnalysis(cat, spc.MustParse(c.text, cat), acc)
		if err != nil {
			t.Fatal(err)
		}
		eb := an.EBCheck()
		fmt.Fprintf(&b, "ebcheck/%s: missing %v, unindexed %v\n", c.label, eb.MissingClasses, eb.UnindexedAtoms)
		dp := an.FindDPh(1)
		fmt.Fprintf(&b, "findDPh/%s: exists %v, params %v, reason %q\n", c.label, dp.Exists, dp.Params, dp.Reason)
		xdp, err := an.ExactMinDP(1, 0)
		fmt.Fprintf(&b, "exactMinDP/%s: exists %v, params %v, reason %q, err %v\n", c.label, xdp.Exists, xdp.Params, xdp.Reason, err)
	}
	return b.String()
}

func TestErrorTextsUnchanged(t *testing.T) {
	got := errorTextCases(t)
	if *updateGolden {
		if err := os.WriteFile(errorsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(errorsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
			}
		}
	}
}
