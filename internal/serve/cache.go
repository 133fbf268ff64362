package serve

import (
	"sync"
	"sync/atomic"

	"bcq/internal/clock"
	"bcq/internal/exec"
)

// maxCachedBody bounds the /query bodies whose answers are cached, as
// maxMemoText bounds the engine's text memo: an entry's key is its body,
// and 4096 entries of one hostile 8 MiB body must not pin 32 GiB. The
// answer to a longer body is computed every time, never cached.
const maxCachedBody = 4 << 10

// cacheEntry is one cached answer with the lineage it is kept by: the
// view's epoch vector at execution (E0) and the version words the
// execution read (exec.ReadSet). Its key is the /query body it answers,
// byte for byte: identical bytes decode to the identical request, so a
// probe needs no decoding, and an entry is stored only under a body that
// decoded as a cacheable query (no limit, no cursor, valid arguments).
// Two spellings of one request — other whitespace, member order or
// escapes — are two keys: they share the plan cache's entry, not an
// answer.
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
// answers. debug records that the request its key decodes to asks for
// the diagnostics block, so a hit knows it needs the plan without
// decoding the body. An entry holds no plan: a plan built since (a drift
// re-plan) finds the same tuples, and a hit reports the statistics of the
// plan that computed it, as a hit always has.
type cacheEntry struct {
	body  []byte
	debug bool
	// epochs is E0, one epoch per shard, and reads the words read, as
	// exec.ReadSet.Words gives them. Both are empty on a sealed database,
	// which has no words and never changes: its entries never expire.
	epochs, reads []uint64
}

// newEntry builds the entry of a payload computed on view, which read the
// given words, for a request that asked for debug output or did not. The
// epochs and the words share one allocation.
func newEntry(body []byte, debug bool, view exec.Store, reads []uint64) cacheEntry {
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
	return cacheEntry{body: body, debug: debug, epochs: vers[:n:n], reads: vers[n:]}
}

// current reports whether the entry is the answer on view v: every word
// it read is at most its shard's epoch in both E0 and v. A view older
// than the entry is answered too, when nothing the entry read moved in
// between.
func (e *cacheEntry) current(v exec.Store) bool {
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
	// Entries is the current entry count; Capacity the CLOCK bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// resultCache wraps the shared CLOCK cache with counters, mapping cache
// keys to entries. Lookups take no lock; mu serializes the writes, as the
// cache's contract asks. Entries are immutable once stored; their
// payloads are shared between the cache and in-flight responses. The
// counters are striped (counter): a request adds to its own stripe.
type resultCache struct {
	mu          sync.Mutex // serializes put and stats
	cap         int
	entries     *clock.Cache[cacheEntry]
	hits        counter
	misses      counter
	invalidated counter
}

func newResultCache(capacity, stripes int) *resultCache {
	return &resultCache{
		cap:         capacity,
		entries:     clock.New[cacheEntry](capacity),
		hits:        newCounter(stripes),
		misses:      newCounter(stripes),
		invalidated: newCounter(stripes),
	}
}

// get returns the entry stored under key, a /query body, with the key
// used in place: one hash of the body and a probe of atomic loads, with
// no lock, no allocation, and no store unless the entry was unreferenced.
// A get that races a put may miss an entry that is there, which costs a
// recompute, never a foreign answer. Whether the entry is still the
// answer is the caller's question (cacheEntry.current on the view it
// pins), and so is the counting: a hit is counted when it is found
// current (Server.probe), and a miss — and whether that miss was an
// invalidation — once, when the request executes, however many times it
// asked (execQuery).
func (c *resultCache) get(key []byte) (cacheEntry, bool) {
	return c.entries.GetBytes(key)
}

// put stores an entry, replacing the one under its key in place. When a
// concurrent execution of the same key raced this one, the entry computed
// on the newer view is kept. It is the one place a key becomes a string:
// the copy of a body that missed, made once, and only when no entry
// holds the key already.
func (c *resultCache) put(key []byte, e cacheEntry) {
	c.mu.Lock()
	if old, ok := c.entries.GetBytes(key); !ok || !newer(old.epochs, e.epochs) {
		c.entries.PutBytes(key, e)
	}
	c.mu.Unlock()
}

// newer reports whether epoch vector a is past b on some shard. The cuts
// a store publishes are ordered shard by shard (each holds every commit
// the one before held), so that makes a the newer view.
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
	entries := c.entries.Len()
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
