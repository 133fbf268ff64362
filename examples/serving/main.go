// Serving: heavy concurrent traffic over one live store.
//
// The quickstart's social network gets an HTTP front: a query server
// multiplexes many clients onto the bounded executor through a worker
// pool, while a writer keeps ingesting tags and friendships. Two
// properties carry the load:
//
//   - hot queries are answered from a result cache that keeps an answer
//     until a write touches an index group it read: a write batch stamps
//     the version words of the groups it rewrote before it publishes its
//     epoch, so an answer it touched misses and every other one stays
//     cached — a stale answer is never served;
//   - every executed answer is bounded: the data touched per request
//     depends on the query and the access schema, not on how large the
//     store has grown while serving.
//
// The demo fires concurrent clients against /query under ingest churn
// and prints the traffic, hit-rate and access statistics.
//
// Run with: go run ./examples/serving
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"bcq"
)

const ddl = `
relation in_album(photo_id, album_id)
relation friends(user_id, friend_id)
relation tagging(photo_id, tagger_id, taggee_id)

constraint in_album: (album_id) -> (photo_id, 1000)
constraint friends: (user_id) -> (friend_id, 5000)
constraint tagging: (photo_id, taggee_id) -> (tagger_id, 1)
`

func tup(vals ...string) bcq.Tuple {
	t := make(bcq.Tuple, len(vals))
	for i, v := range vals {
		t[i] = bcq.Str(v)
	}
	return t
}

func main() {
	cat, acc, err := bcq.ParseDDL(ddl)
	if err != nil {
		log.Fatal(err)
	}
	db := bcq.NewDatabase(cat)
	for a := 0; a < 8; a++ {
		for p := 0; p < 6; p++ {
			photo := fmt.Sprintf("a%dp%d", a, p)
			must(db.Insert("in_album", tup(photo, fmt.Sprintf("a%d", a))))
			must(db.Insert("tagging", tup(photo, fmt.Sprintf("u%d", (a+p)%8), fmt.Sprintf("u%d", p%8))))
		}
	}
	for u := 0; u < 8; u++ {
		for f := 1; f <= 3; f++ {
			must(db.Insert("friends", tup(fmt.Sprintf("u%d", u), fmt.Sprintf("u%d", (u+f)%8))))
		}
	}

	ld, err := bcq.NewLiveDatabase(db, acc, bcq.LiveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := bcq.NewLiveEngine(ld, bcq.EngineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := bcq.NewQueryServer(eng, bcq.ServeOptions{
		Workers: 8,
		Ingest: func(ops []bcq.LiveOp) error {
			_, err := ld.Apply(ops)
			return err
		},
		Metrics: ld,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv.Handler()) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("bqserve demo listening on %s\n\n", base)

	// One writer streams friendships in (duplicates of existing pairs are
	// always schema-safe), advancing the epoch continuously.
	stop := make(chan struct{})
	var writerOps int
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			body := fmt.Sprintf(`{"ops": [{"op": "insert", "rel": "friends", "tuple": ["u%d", "u%d"]}]}`,
				i%8, (i+1)%8)
			resp, err := http.Post(base+"/ingest", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
			writerOps++
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Concurrent clients hammer two parameterized shapes.
	const clients, perClient = 8, 300
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var body string
				if i%2 == 0 {
					body = fmt.Sprintf(`{"query": "select photo_id from in_album where album_id = ?", "args": ["a%d"]}`, i%8)
				} else {
					body = fmt.Sprintf(`{"query": "select friend_id from friends where user_id = ?", "args": ["u%d"]}`, (c+i)%8)
				}
				resp, err := http.Post(base+"/query", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					log.Fatal(err)
				}
				var env struct {
					Cached bool   `json:"cached"`
					Epoch  string `json:"epoch"`
					Error  string `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
				if env.Error != "" {
					log.Fatalf("query failed: %s", env.Error)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	writerWG.Wait()

	total := clients * perClient
	cs := srv.CacheStats()
	es := eng.Stats()
	ig := ld.IngestStats()
	fmt.Printf("served %d queries from %d clients in %v (%.0f q/s)\n",
		total, clients, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds())
	fmt.Printf("result cache: %d hits / %d misses (%.0f%% hit rate), %d of the misses invalidated by a write to a group the answer read\n",
		cs.Hits, cs.Misses, 100*float64(cs.Hits)/float64(cs.Hits+cs.Misses), cs.Invalidated)
	fmt.Printf("plan cache:   %d prepares, %d analyses — two shapes, planned once each\n",
		es.Prepares, es.CacheMisses)
	fmt.Printf("ingest:       %d writes committed concurrently, store now at epoch %d (|D| = %d)\n",
		ig.OpsApplied, ig.Epochs, ld.Snapshot().NumTuples())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
