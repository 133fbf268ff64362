package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bcq/internal/engine"
	"bcq/internal/exec"
	"bcq/internal/shard"
)

// TestFailedCheckpointKeepsAnswersCached: a checkpoint whose segment
// cannot be written fails Compact with its error and changes nothing a
// reader can see — not the epoch, not a version word, so not a cached
// answer either, which is still served as a hit. The store goes on
// taking writes and serving reads. The failure is made by replacing the
// store's directory with a file, which fails the same way on every run,
// for root too. On a durable store of one shard and of two.
func TestFailedCheckpointKeepsAnswersCached(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", shards), func(t *testing.T) {
			db, acc := serveData(t)
			dir := filepath.Join(t.TempDir(), "store")
			ss, err := shard.New(db, acc, shard.Options{Shards: shards, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := engine.NewSharded(ss, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// The checkpoint of Close fails too; closing releases the log.
			t.Cleanup(func() { _ = ss.Close() })
			srv, err := New(eng, Options{Ingest: ss.Apply})
			if err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			ask := func(arg string) envelope {
				t.Helper()
				code, raw := serveInProcess(h, fmt.Sprintf(`{"query": "select photo_id from in_album where album_id = ?", "args": [%q]}`, arg))
				var env envelope
				if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK {
					t.Fatalf("album %s: status %d: %s", arg, code, raw)
				}
				return env
			}
			words := func() []uint64 {
				v := eng.View().(exec.Versioned)
				var out []uint64
				for s := 0; s < v.NumShards(); s++ {
					words := v.Words(s)
					for w := range words {
						out = append(out, words[w].Load())
					}
				}
				return out
			}

			cached := ask("a0")
			// A write first, so the words hold more than the pristine zeros.
			if code, raw := ingestInProcess(h, `{"ops": [{"op": "insert", "rel": "friends", "tuple": ["u5", "f5"]}]}`); code != http.StatusOK {
				t.Fatalf("ingest: status %d: %s", code, raw)
			}
			epoch, before := eng.EpochKey(), words()

			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := ss.Compact(); err == nil {
				t.Fatal("a checkpoint into a directory that is a file succeeded")
			}
			if got := eng.EpochKey(); got != epoch {
				t.Errorf("the failed checkpoint moved the epoch %s -> %s", epoch, got)
			}
			if !slices.Equal(words(), before) {
				t.Error("the failed checkpoint moved a version word")
			}
			if env := ask("a0"); !env.Cached || string(env.Result) != string(cached.Result) || env.Epoch != epoch {
				t.Errorf("after the failed checkpoint: cached %v at %s, %s; want the answer of %s cached",
					env.Cached, env.Epoch, env.Result, epoch)
			}

			// Writes and reads go on.
			if code, raw := ingestInProcess(h, `{"ops": [{"op": "insert", "rel": "in_album", "tuple": ["p9", "a0"]}]}`); code != http.StatusOK {
				t.Fatalf("ingest after the failed checkpoint: status %d: %s", code, raw)
			}
			if env := ask("a0"); env.Cached || !strings.Contains(string(env.Result), `["p9"]`) {
				t.Errorf("a read after the failed checkpoint and a write: cached %v, %s", env.Cached, env.Result)
			}
		})
	}
}

// ingestInProcess sends one /ingest body to the handler without a socket.
func ingestInProcess(h http.Handler, body string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}
