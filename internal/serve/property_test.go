package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// TestServedResponsesMatchDirectExecution is the serving layer's
// correctness property: with the result cache enabled, under concurrent
// clients and concurrent ingest churn, every /query response must be
// byte-identical to executing the same prepared query directly on the
// engine against the exact epoch the response claims — no stale hit is
// ever served.
//
// The verification trick: the single churn writer pins every epoch's
// snapshot as it publishes it. A response carries its epoch key, so the
// test replays (query, args) on that pinned snapshot through the engine
// and compares the canonical payload bytes. A stale cache hit would
// surface as a payload rendered from an older epoch under a newer
// epoch's key — a byte mismatch.
func TestServedResponsesMatchDirectExecution(t *testing.T) {
	ls := serveScene(t)
	eng, err := engine.NewLive(ls, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(eng, Options{
		ResultCacheSize: 256,
		Ingest: func(ops []live.Op) error {
			_, err := ls.Apply(ops)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// Pin every epoch the server could ever answer at. The writer below
	// is the only writer, so after Apply returns epoch E the current
	// snapshot is exactly E.
	pinned := sync.Map{} // epoch key -> *live.Snapshot
	snap := ls.Snapshot()
	pinned.Store(snap.EpochKey(), snap)

	templates := []struct {
		query string
		args  func(r *rand.Rand) []any
	}{
		{
			query: `select photo_id from in_album where album_id = ?`,
			args:  func(r *rand.Rand) []any { return []any{fmt.Sprintf("a%d", r.Intn(3))} },
		},
		{
			query: `select friend_id from friends where user_id = ?`,
			args:  func(r *rand.Rand) []any { return []any{fmt.Sprintf("u%d", r.Intn(3))} },
		},
		{
			query: `
				select t1.photo_id
				from in_album as t1, tagging as t3
				where t1.album_id = ? and t1.photo_id = t3.photo_id and t3.taggee_id = ?`,
			args: func(r *rand.Rand) []any {
				return []any{fmt.Sprintf("a%d", r.Intn(2)), fmt.Sprintf("u%d", r.Intn(2))}
			},
		},
	}

	// Churn: duplicate-or-delete existing tuples (never violates the
	// schema) plus fresh friends fan-out, every batch pinned. Writer and
	// clients keep step both ways, a batch per perBatch requests: batch i
	// waits until the clients have sent i·perBatch requests, and request s
	// waits for batch s/perBatch. Unpaced, how many requests met at one
	// epoch — and so whether any was answered from the cache at all — was
	// up to the scheduler.
	const perBatch = 8
	var sent, written atomic.Int64
	stopChurn := make(chan struct{})
	churnDone := make(chan error, 1)
	go func() {
		defer written.Store(math.MaxInt64) // a failed writer holds no client back
		r := rand.New(rand.NewSource(7))
		dup := value.Tuple{value.Str("u0"), value.Str("f1")}
		alive := 0
		for i := 0; ; i++ {
			for sent.Load() < int64(i*perBatch) {
				select {
				case <-stopChurn:
					churnDone <- nil
					return
				default:
					runtime.Gosched()
				}
			}
			var ops []live.Op
			if alive > 0 && r.Intn(3) == 0 {
				ops = append(ops, live.Delete("friends", dup))
				alive--
			} else {
				ops = append(ops, live.Insert("friends", dup))
				alive++
			}
			// Cycle the photo keys: (px i mod 900, a i mod 3) pairs stay
			// consistent, so each album gains at most 300 distinct photos
			// and the (album_id) -> (photo_id, 1000) bound is never at risk
			// regardless of how fast the churn loop spins.
			ops = append(ops, live.Insert("in_album", value.Tuple{
				value.Str(fmt.Sprintf("px%d", i%900)), value.Str(fmt.Sprintf("a%d", i%3)),
			}))
			if _, err := ls.Apply(ops); err != nil {
				churnDone <- err
				return
			}
			s := ls.Snapshot()
			pinned.Store(s.EpochKey(), s)
			written.Add(1)
		}
	}()

	type sample struct {
		template int
		args     []any
		epoch    string
		payload  string
		cached   bool
	}
	clients, perClient := 8, 60
	if testing.Short() {
		clients, perClient = 4, 25
	}
	samplesCh := make(chan []sample, clients)
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			r := rand.New(rand.NewSource(int64(100 + c)))
			var out []sample
			for i := 0; i < perClient; i++ {
				ti := r.Intn(len(templates))
				args := templates[ti].args(r)
				body, _ := json.Marshal(map[string]any{
					"query": templates[ti].query,
					"args":  args,
				})
				for seq := sent.Add(1) - 1; written.Load() <= seq/perBatch; {
					runtime.Gosched()
				}
				resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					errCh <- err
					return
				}
				var env envelope
				err = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				if err != nil {
					errCh <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, env.Error)
					return
				}
				out = append(out, sample{
					template: ti, args: args, epoch: env.Epoch,
					payload: string(env.Result), cached: env.Cached,
				})
			}
			samplesCh <- out
			errCh <- nil
		}(c)
	}
	var all []sample
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	close(samplesCh)
	for out := range samplesCh {
		all = append(all, out...)
	}
	close(stopChurn)
	if err := <-churnDone; err != nil {
		t.Fatal(err)
	}

	// Replay every response on its pinned epoch.
	hits, epochs := 0, map[string]bool{}
	for i, smp := range all {
		v, ok := pinned.Load(smp.epoch)
		if !ok {
			t.Fatalf("sample %d claims unknown epoch %s", i, smp.epoch)
		}
		p, err := eng.Prepare(templates[smp.template].query)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]value.Value, len(smp.args))
		for j, a := range smp.args {
			vals[j] = value.Str(a.(string))
		}
		res, err := p.ExecOn(v.(*live.Snapshot), vals...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(smp.payload) != string(want) {
			t.Fatalf("sample %d (template %d, args %v, epoch %s, cached %v):\n served %s\n direct %s",
				i, smp.template, smp.args, smp.epoch, smp.cached, smp.payload, want)
		}
		if smp.cached {
			hits++
		}
		epochs[smp.epoch] = true
	}
	if hits == 0 {
		t.Error("no response was served from the result cache; the property did not exercise it")
	}
	if len(epochs) < 2 {
		t.Error("all responses saw one epoch; churn did not overlap the clients")
	}
	t.Logf("verified %d responses, %d cache hits, %d distinct epochs", len(all), hits, len(epochs))
}

// lineageDDL is the scene of TestCacheHitsMatchExecutionUnderChurn: small
// domains, so random churn keeps rewriting the groups cached answers read,
// and a constraint-less relation whose emptiness an existence check reads.
const lineageDDL = `
relation in_album(photo_id, album_id)
relation friends(user_id, friend_id)
relation tagging(photo_id, tagger_id, taggee_id)
relation flags(flag)

constraint in_album: (album_id) -> (photo_id, 1000)
constraint friends: (user_id) -> (friend_id, 1000)
constraint tagging: (photo_id) -> (tagger_id, taggee_id, 1000)
`

// TestCacheHitsMatchExecutionUnderChurn is the result cache's lineage
// property: after every batch of a random churn of inserts, deletes,
// Compacts and one ExtendAccess, on one store and on two shards, every
// answer the server would serve from the cache is byte for byte what
// executing the query on the current snapshot gives. An answer is kept
// across writes by the version words of the groups it read, so a write
// that rewrites one of them without moving its word — a delete that
// forgets to stamp, an existence check that misses its relation — serves
// a stale answer here. Run with -race: each round's requests are sent
// concurrently, racing their executions' puts.
func TestCacheHitsMatchExecutionUnderChurn(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", shards), func(t *testing.T) { checkCacheLineage(t, shards) })
	}
}

func checkCacheLineage(t *testing.T, shards int) {
	cat, acc, err := schema.ParseDDL(lineageDDL)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(int64(40 + shards)))
	pick := func(prefix string, n int) value.Value { return value.Str(fmt.Sprintf("%s%d", prefix, r.Intn(n))) }
	draw := map[string]func() value.Tuple{
		"in_album": func() value.Tuple { return value.Tuple{pick("p", 10), pick("a", 4)} },
		"friends":  func() value.Tuple { return value.Tuple{pick("u", 4), pick("f", 6)} },
		"tagging":  func() value.Tuple { return value.Tuple{pick("p", 10), pick("f", 6), pick("u", 4)} },
		"flags":    func() value.Tuple { return value.Tuple{pick("g", 2)} },
	}
	rels := []string{"in_album", "friends", "tagging", "flags"}
	// model is the test's own copy of the data: what a delete may name.
	model := map[string][]value.Tuple{}
	db := storage.NewDatabase(cat)
	for _, rel := range rels {
		// One flag: the churn empties and refills the relation often.
		n := 6
		if rel == "flags" {
			n = 1
		}
		for i := 0; i < n; i++ {
			tu := draw[rel]()
			if err := db.Insert(rel, tu); err != nil {
				t.Fatal(err)
			}
			model[rel] = append(model[rel], tu)
		}
	}

	var (
		eng     *engine.Engine
		apply   func([]live.Op) error
		compact func() error
		extend  func(schema.AccessConstraint) error
	)
	if shards == 1 {
		ls, err := live.New(db, acc, live.Options{})
		if err != nil {
			t.Fatal(err)
		}
		eng, err = engine.NewLive(ls, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		apply = func(ops []live.Op) error { _, err := ls.Apply(ops); return err }
		compact = func() error { _, err := ls.Compact(); return err }
		extend = ls.ExtendAccess
	} else {
		ss, err := shard.New(db, acc, shard.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		eng, err = engine.NewSharded(ss, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		apply, compact, extend = ss.Apply, ss.Compact, ss.ExtendAccess
	}
	srv, err := New(eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	// Every (query, args) the rounds draw from: few enough that the checks
	// below look at all of them after every batch.
	type request struct {
		query string
		args  []value.Value
	}
	var universe []request
	strs := func(prefix string, n int) []value.Value {
		out := make([]value.Value, n)
		for i := range out {
			out[i] = value.Str(fmt.Sprintf("%s%d", prefix, i))
		}
		return out
	}
	albums, users, photos := strs("a", 4), strs("u", 4), strs("p", 10)
	for _, a := range albums {
		universe = append(universe,
			request{`select photo_id from in_album where album_id = ?`, []value.Value{a}},
			// flags is an atom with no parameters: an existence check.
			request{`select t1.photo_id from in_album as t1, flags as t2 where t1.album_id = ?`, []value.Value{a}})
		for _, u := range users {
			universe = append(universe, request{`select t1.photo_id from in_album as t1, tagging as t2
				where t1.album_id = ? and t1.photo_id = t2.photo_id and t2.taggee_id = ?`, []value.Value{a, u}})
		}
	}
	for _, u := range users {
		universe = append(universe, request{`select friend_id from friends where user_id = ?`, []value.Value{u}})
		for _, p := range photos[:5] {
			universe = append(universe, request{`select tagger_id from tagging where photo_id = ? and taggee_id = ?`, []value.Value{p, u}})
		}
	}
	body := func(rq request) string {
		args := make([]string, len(rq.args))
		for i, a := range rq.args {
			args[i] = fmt.Sprintf("%q", a.AsString())
		}
		b, _ := json.Marshal(rq.query)
		return fmt.Sprintf(`{"query": %s, "args": [%s]}`, b, strings.Join(args, ","))
	}

	rounds := 120
	if testing.Short() {
		rounds = 40
	}
	hits := 0
	for round := 0; round < rounds; round++ {
		// Ask a third of the universe, from four clients at once.
		var wg sync.WaitGroup
		asks := make(chan request, len(universe))
		for _, rq := range universe {
			if r.Intn(3) == 0 {
				asks <- rq
			}
		}
		close(asks)
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rq := range asks {
					if code, raw := serveInProcess(h, body(rq)); code != http.StatusOK {
						t.Errorf("%s: status %d: %s", body(rq), code, raw)
					}
				}
			}()
		}
		wg.Wait()

		// The batch: inserts and deletes of whatever is live, then now and
		// then a Compact, and halfway the schema extension.
		var ops []live.Op
		for n := 1 + r.Intn(5); n > 0; n-- {
			rel := rels[r.Intn(len(rels))]
			if ts := model[rel]; len(ts) > 0 && r.Intn(2) == 0 {
				i := r.Intn(len(ts))
				ops = append(ops, live.Delete(rel, ts[i]))
				model[rel] = append(ts[:i:i], ts[i+1:]...)
				continue
			}
			tu := draw[rel]()
			ops = append(ops, live.Insert(rel, tu))
			model[rel] = append(model[rel], tu)
		}
		if err := apply(ops); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if r.Intn(8) == 0 {
			if err := compact(); err != nil {
				t.Fatalf("round %d: compact: %v", round, err)
			}
		}
		// The extension is a tighter bound on the friends groups, which a
		// re-plan may pick for the friends template: its groups are the
		// same, so the statistics of every plan of a template agree, and a
		// hit computed by an older plan must still equal execution now.
		if round == rounds/2 {
			if err := extend(schema.MustAccessConstraint("friends", []string{"user_id"}, []string{"friend_id"}, 500)); err != nil {
				t.Fatalf("round %d: extend: %v", round, err)
			}
		}

		// Every answer the cache would serve now is the answer now.
		for _, rq := range universe {
			p, err := eng.Prepare(rq.query)
			if err != nil {
				t.Fatal(err)
			}
			lk := lookup{key: []byte(body(rq))}
			srv.lookup(&lk)
			if lk.body == nil {
				continue
			}
			hits++
			res, err := p.ExecOn(lk.view, rq.args...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := marshalResult(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(lk.body) != string(want) {
				t.Fatalf("round %d, %s %v at %s: the cache serves\n %s\nexecution gives\n %s",
					round, rq.query, rq.args, epochOf(lk.view).AppendEpochKey(nil), lk.body, want)
			}
		}
	}
	cs := srv.CacheStats()
	if hits == 0 || cs.Invalidated == 0 {
		t.Errorf("the churn missed a mechanism: %d hits checked, %d invalidations", hits, cs.Invalidated)
	}
	t.Logf("%d rounds: %d hits checked against execution; cache %+v", rounds, hits, cs)
}
