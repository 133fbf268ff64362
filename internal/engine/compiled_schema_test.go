package engine

import (
	"fmt"
	"sync"
	"testing"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// TestExtendAccessReplansOverCompiledSchema: once a prepare has compiled
// the store's access schema, an ExtendAccess publishes a new schema whose
// compiled form is built afresh — a shape refused as not effectively
// bounded then plans over the new constraint — on a live engine and on a
// two-shard engine.
func TestExtendAccessReplansOverCompiledSchema(t *testing.T) {
	scene := func(t *testing.T) (*schema.Catalog, *schema.AccessSchema, *storage.Database) {
		t.Helper()
		cat := schema.MustCatalog(schema.MustRelation("r", "a", "b", "c"))
		acc := schema.MustAccessSchema(schema.MustAccessConstraint("r", []string{"a"}, []string{"b"}, 10))
		db := storage.NewDatabase(cat)
		for i := 0; i < 6; i++ {
			if err := db.Insert("r", value.Tuple{value.Int(int64(i % 3)), value.Int(int64(10 + i)), value.Int(int64(20 + i))}); err != nil {
				t.Fatal(err)
			}
		}
		return cat, acc, db
	}
	// The grant keeps the sharded store's shard key (a) in its X.
	grant := schema.MustAccessConstraint("r", []string{"a", "b"}, []string{"c"}, 5)
	for _, tc := range []struct {
		name   string
		engine func(t *testing.T) (*Engine, func(schema.AccessConstraint) error)
	}{
		{"live", func(t *testing.T) (*Engine, func(schema.AccessConstraint) error) {
			_, acc, db := scene(t)
			ls, err := live.New(db, acc, live.Options{})
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewLive(ls, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return e, ls.ExtendAccess
		}},
		{"sharded", func(t *testing.T) (*Engine, func(schema.AccessConstraint) error) {
			_, acc, db := scene(t)
			ss, err := shard.New(db, acc, shard.Options{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewSharded(ss, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return e, ss.ExtendAccess
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, extend := tc.engine(t)
			// Compile the schema: a shape that plans, and one it refuses.
			if _, err := e.Prepare(`select b from r where a = 1`); err != nil {
				t.Fatal(err)
			}
			const byB = `select c from r where a = 1 and b = 11`
			if _, err := e.Prepare(byB); err == nil {
				t.Fatal("lookup of c planned without an access path to c")
			}
			if err := extend(grant); err != nil {
				t.Fatal(err)
			}
			p, err := e.Prepare(byB)
			if err != nil {
				t.Fatalf("still refused after ExtendAccess granted (a, b) -> (c): %v", err)
			}
			if st := p.Plan().Steps; len(st) != 1 || st[0].AC.Key() != grant.Key() {
				t.Fatalf("plan steps %v, want one probe of %s", st, grant)
			}
			res, err := p.Exec()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Tuples) != 1 || res.Tuples[0][0] != value.Int(21) {
				t.Fatalf("answers %v, want [21]", res.Tuples)
			}
		})
	}
}

// TestConcurrentFirstPreparesCompileOneSchema: many prepares of distinct
// shapes make the first use of one access schema at once — the schema an
// ExtendAccess just published, which nothing has compiled — and every
// one plans and answers as a lone prepare would. Run under -race, it
// checks that the schema's compiled form is published safely.
func TestConcurrentFirstPreparesCompileOneSchema(t *testing.T) {
	ds, db, lone := socialEngine(t, Options{})
	const workers = 16
	texts := make([]string, workers)
	want := make([]int, workers)
	for i := range texts {
		texts[i] = fmt.Sprintf(`select t1.photo_id from in_album as t1, friends as t2, tagging as t3
			where t1.album_id = %d and t2.user_id = %d and t1.photo_id = t3.photo_id
			  and t3.tagger_id = t2.friend_id and t3.taggee_id = t2.user_id`, i%2, i)
		res, err := lone.Exec(texts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(res.Tuples)
	}

	// The live store starts without the tagging constraint and is granted
	// it: its schema is then one no prepare has used.
	var acs []schema.AccessConstraint
	var tagging schema.AccessConstraint
	for _, ac := range ds.Access.Constraints() {
		if ac.Rel == "tagging" {
			tagging = ac
			continue
		}
		acs = append(acs, ac)
	}
	ls, err := live.New(db, schema.MustAccessSchema(acs...), live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ls.ExtendAccess(tagging); err != nil {
		t.Fatal(err)
	}
	e, err := NewLive(ls, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	got := make([]int, workers)
	errs := make([]error, workers)
	for i := range texts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := e.Exec(texts[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = len(res.Tuples)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range texts {
		if errs[i] != nil {
			t.Fatalf("prepare %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("prepare %d answered %d tuples, a lone prepare %d", i, got[i], want[i])
		}
	}
	if st := e.Stats(); st.CacheMisses != workers {
		t.Errorf("stats %+v: want %d cold prepares", st, workers)
	}
}
