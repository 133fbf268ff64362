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
	eng, err := engine.NewLive(ls, engine.Options{Parallelism: 2})
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
