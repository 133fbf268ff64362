package shard_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bcq/internal/datagen"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
)

// TestPlacementCensus counts the relations of the generated datasets and
// of the benchmark scene that hash-partition on a non-empty shard key;
// the rest take the empty key and are pinned. No relation of any of them
// lacks constraints. Six of TPC-H's eight relations, MOT's one and 17 of
// TFACC's 19 carry a domain constraint ∅ → (A, m), whose empty X is their
// anchor; TPC-H's other two have incomparable X-sets. DESIGN §7 quotes
// these counts.
func TestPlacementCensus(t *testing.T) {
	ddl, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "scene.ddl"))
	if err != nil {
		t.Fatal(err)
	}
	sceneCat, sceneAcc, err := schema.ParseDDL(string(ddl))
	if err != nil {
		t.Fatal(err)
	}
	type census struct {
		name                   string
		cat                    *schema.Catalog
		acc                    *schema.AccessSchema
		partitioned, relations int
	}
	generated := func(ds *datagen.Dataset, partitioned, relations int) census {
		return census{ds.Name, ds.Catalog, ds.Access, partitioned, relations}
	}
	for _, c := range []census{
		{"scene", sceneCat, sceneAcc, 3, 5},
		generated(datagen.TPCH(), 0, 8),
		generated(datagen.MOT(), 0, 1),
		generated(datagen.TFACC(), 2, 19),
		generated(datagen.Social(), 3, 3),
	} {
		for _, shards := range []int{2, 3} {
			ss, err := shard.New(storage.NewDatabase(c.cat), c.acc, shard.Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			partitioned, unconstrained := 0, 0
			for _, rs := range c.cat.Relations() {
				pl, err := ss.PlacementOf(rs.Name())
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(pl, "partitioned") {
					partitioned++
				}
				if len(c.acc.ForRelation(rs.Name())) == 0 {
					unconstrained++
				}
			}
			got := fmt.Sprintf("%d of %d partitioned, %d without constraints", partitioned, c.cat.NumRelations(), unconstrained)
			want := fmt.Sprintf("%d of %d partitioned, 0 without constraints", c.partitioned, c.relations)
			if got != want {
				t.Errorf("%s at P=%d: %s, want %s", c.name, shards, got, want)
			}
		}
	}
}
