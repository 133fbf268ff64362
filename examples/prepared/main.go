// Prepared-query engine: the paper's Example 1(2) parameterized template
// served the way a platform would serve it.
//
// The template "photos in album ? in which user ? was tagged by a friend"
// is not effectively bounded as written — but every instantiation of its
// two slots is. The engine plans the template once (against opaque
// sentinel constants), caches the plan under the query's fingerprint, and
// binds the arguments per request, so serving a million requests costs a
// million bounded executions and exactly one analysis.
//
// Run with: go run ./examples/prepared
package main

import (
	"fmt"
	"log"

	"bcq"
	"bcq/internal/datagen"
)

const template = `
select t1.photo_id
from in_album as t1, friends as t2, tagging as t3
where t1.album_id = ?
  and t2.user_id = ?
  and t1.photo_id = t3.photo_id
  and t3.tagger_id = t2.friend_id
  and t3.taggee_id = t2.user_id
`

func main() {
	ds := datagen.Social()
	db := ds.MustBuild(0.5)
	fmt.Printf("social network: |D| = %d tuples\n\n", db.NumTuples())

	eng, err := bcq.NewEngine(ds.Catalog, ds.Access, db, bcq.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}

	prep, err := eng.Prepare(template)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prepared: %d parameter slots, fetch bound %s\n\n", prep.NumParams(), prep.FetchBound())

	// Serve a burst of requests over different albums and users.
	requests := 0
	answers := 0
	var fetched int64
	for album := int64(0); album < 8; album++ {
		for user := int64(0); user < 8; user++ {
			res, err := prep.Exec(bcq.Int(album), bcq.Int(user))
			if err != nil {
				log.Fatal(err)
			}
			requests++
			answers += len(res.Tuples)
			fetched += res.Stats.TuplesFetched
		}
	}
	fmt.Printf("served %d requests: %d answers, %d tuples fetched (mean %.1f per request)\n",
		requests, answers, fetched, float64(fetched)/float64(requests))

	// Re-preparing the same shape — even with different whitespace or a
	// query name — hits the plan cache.
	if _, err := eng.Prepare("query Hot:" + template); err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("engine stats: %d prepares, %d planned, %d cache hits, %d executions\n",
		st.Prepares, st.CacheMisses, st.CacheHits, st.Execs)
}
