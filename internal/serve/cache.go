package serve

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"bcq/internal/exec"
	"bcq/internal/lru"
	"bcq/internal/value"
)

// appendKey appends the result-cache key of one /query to dst: the
// length of the request text as a uvarint, the text, and the bound
// arguments in their collision-free binary encoding (value.AppendKey).
// The key is what the request holds, so a lookup needs no plan, and it
// names no epoch: an entry stays reachable across writes, a refreshed
// answer replaces it in place, and whether it is still the answer is the
// entry's own question (cacheEntry.current). The length prefix keeps the
// text from running into the arguments: a NUL at the end of a text cannot
// pass for the encoding of a Null argument. Two spellings of one shape
// share the plan cache's entry, not an answer.
func appendKey(dst []byte, text string, args []value.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(text)))
	dst = append(dst, text...)
	return value.Tuple(args).AppendKey(dst)
}

// maxCachedText bounds the texts whose answers are cached, as
// maxMemoText bounds the engine's text memo: an entry's key holds its
// text, and 4096 entries of one hostile 8 MiB body must not pin 32 GiB.
// A longer text is answered, never cached.
const maxCachedText = 4 << 10

// keyBuf is the pooled scratch of one /query: its result-cache key, and
// then, on an untraced hit, its response.
type keyBuf struct{ b []byte }

var keyBufs = sync.Pool{New: func() any { return &keyBuf{b: make([]byte, 0, 512)} }}

// release returns the buffer to the pool; one grown past a pooled body's
// size is left to the collector.
func (k *keyBuf) release() {
	if cap(k.b) <= maxPooledBody {
		k.b = k.b[:0]
		keyBufs.Put(k)
	}
}

// cacheEntry is one cached answer with the lineage it is kept by: the
// view's epoch vector at execution (E0) and the version words the
// execution read (exec.ReadSet).
//
// The entry is the answer on a later view V when no word it read is past
// E0 on its shard. A commit stores its epoch into the words of the groups
// it rewrote before it publishes, so every commit up to V shows in the
// words; none past E0 means no commit in (E0, V] touched a group the plan
// probed, and by Q(D) = Q(D_Q) the plan probes the same groups on V and
// computes the same payload — tuples, statistics and |D_Q| alike. A word
// shared by two groups, or moved by a commit newer than V, costs a miss,
// never a stale answer. The argument names only the words and the
// epochs, never the key: the key just says which question the entry
// answers. An entry holds no plan: a plan built since (a drift re-plan)
// finds the same tuples, and a hit reports the statistics
// of the plan that computed it, as a hit always has.
type cacheEntry struct {
	body []byte
	// epochs is E0, one epoch per shard, and reads the words read, as
	// exec.ReadSet.Words gives them. Both are empty on a sealed database,
	// which has no words and never changes: its entries never expire.
	epochs, reads []uint64
}

// newEntry builds the entry of a payload computed on view, which read the
// given words. The epochs and the words share one allocation.
func newEntry(body []byte, view exec.Store, reads []uint64) cacheEntry {
	vs, _ := view.(exec.Versioned)
	n := 0
	if vs != nil {
		n = vs.NumShards()
	}
	vers := make([]uint64, n+len(reads))
	for s := 0; s < n; s++ {
		vers[s] = vs.ShardEpoch(s)
	}
	copy(vers[n:], reads)
	return cacheEntry{body: body, epochs: vers[:n:n], reads: vers[n:]}
}

// current reports whether the entry is the answer on view v: every word
// it read is at most its shard's epoch in both E0 and v. A view older
// than the entry is answered too, when nothing the entry read moved in
// between.
func (e cacheEntry) current(v exec.Store) bool {
	if len(e.reads) == 0 {
		return true
	}
	vs, ok := v.(exec.Versioned)
	if !ok {
		return false
	}
	var (
		shard = -1
		limit uint64
		words []atomic.Uint64
	)
	for _, r := range e.reads { // sorted by shard
		s, w := exec.ReadWord(r)
		if s != shard {
			shard, limit, words = s, min(e.epochs[s], vs.ShardEpoch(s)), vs.Words(s)
		}
		if words[w].Load() > limit {
			return false
		}
	}
	return true
}

// CacheStats is the result cache's counter snapshot.
type CacheStats struct {
	// Hits counts queries answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts cacheable queries that had to execute.
	Misses int64 `json:"misses"`
	// Invalidated counts the misses that found an entry under their key
	// whose read set had moved since it was computed: answers a write
	// may have changed. It is part of Misses.
	Invalidated int64 `json:"invalidated"`
	// Entries is the current entry count; Capacity the LRU bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// resultCache wraps the shared LRU with a mutex and counters, mapping
// cache keys to entries. Entries are immutable once stored; their
// payloads are shared between the cache and in-flight responses.
type resultCache struct {
	mu          sync.Mutex
	cap         int
	lru         *lru.Cache[cacheEntry]
	hits        atomic.Int64
	misses      atomic.Int64
	invalidated atomic.Int64
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, lru: lru.New[cacheEntry](capacity)}
}

// get returns the payload under key when its entry is current on view v,
// and counts the hit. stale reports an entry that a write has since made
// doubtful. A probe that finds no answer counts nothing: the request may
// ask again (execQuery), and its miss — and whether that miss was an
// invalidation — is counted once, when it executes. The lookup allocates
// nothing.
func (c *resultCache) get(key []byte, v exec.Store) (body []byte, stale bool) {
	c.mu.Lock()
	e, ok := c.lru.GetBytes(key)
	c.mu.Unlock()
	switch {
	case !ok:
		return nil, false
	case !e.current(v):
		return nil, true
	}
	c.hits.Add(1)
	return e.body, false
}

// put stores an entry, replacing the one under its key in place. When a
// concurrent execution of the same key raced this one, the entry computed
// on the newer view is kept. It is the one place a key becomes a string.
func (c *resultCache) put(key []byte, e cacheEntry) {
	c.mu.Lock()
	if old, ok := c.lru.GetBytes(key); !ok || !newer(old.epochs, e.epochs) {
		c.lru.Put(string(key), e)
	}
	c.mu.Unlock()
}

// newer reports whether epoch vector a is past b on some shard. Views of
// one store are ordered shard by shard (each pin sees every commit the
// previous one saw), so that makes a the newer view.
func newer(a, b []uint64) bool {
	for s := range min(len(a), len(b)) {
		if a[s] > b[s] {
			return true
		}
	}
	return false
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	entries := c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Invalidated: c.invalidated.Load(),
		Entries:     entries,
		Capacity:    c.cap,
	}
}

// readSets recycles the read sets cacheable executions record into: an
// entry keeps an exact copy, so the recording buffer outlives no request.
var readSets = sync.Pool{New: func() any { return new(exec.ReadSet) }}
