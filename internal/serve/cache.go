package serve

import (
	"sync"
	"sync/atomic"

	"bcq/internal/engine"
	"bcq/internal/lru"
	"bcq/internal/value"
)

// cacheKey is the result-cache key of one answered query: the plan's
// normalized fingerprint (two texts of one shape share it), the bound
// argument vector in its collision-free binary encoding, and the pinned
// view's epoch key. Including the epoch makes invalidation structural —
// a write advances the epoch, so post-write requests form keys no stale
// entry can ever match. Old-epoch entries become unreachable garbage
// and age out of the LRU.
func cacheKey(p *engine.Prepared, args []value.Value, epoch string) string {
	return p.Fingerprint() + "\x00" + value.Tuple(args).Key() + "\x00" + epoch
}

// CacheStats is the result cache's counter snapshot.
type CacheStats struct {
	// Hits counts queries answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts cacheable queries that had to execute.
	Misses int64 `json:"misses"`
	// Entries is the current entry count; Capacity the LRU bound.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// resultCache wraps the shared LRU with a mutex and hit/miss counters,
// mapping cache keys to canonical response payloads. Payloads are
// immutable byte slices, shared between the cache and in-flight
// responses.
type resultCache struct {
	mu     sync.Mutex
	cap    int
	lru    *lru.Cache[[]byte]
	hits   atomic.Int64
	misses atomic.Int64
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, lru: lru.New[[]byte](capacity)}
}

// get returns the payload under key and counts the hit. A probe that
// finds nothing counts nothing: the request may ask again (execQuery),
// and its miss is counted once, when it executes.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	body, ok := c.lru.Get(key)
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return body, ok
}

// put stores a payload; when a concurrent execution of the same key
// raced us there, either body wins — both are renderings of the same
// epoch's answer.
func (c *resultCache) put(key string, body []byte) {
	c.mu.Lock()
	c.lru.Put(key, body)
	c.mu.Unlock()
}

func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	entries := c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Entries:  entries,
		Capacity: c.cap,
	}
}
