package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bcq/internal/engine"
	"bcq/internal/exec"
	"bcq/internal/obs"
)

// cursorState is one open pagination stream: the pull-based answer
// stream plus the view it executes against. Holding the view pins the
// snapshot (and therefore the epoch key) for the cursor's whole
// lifetime, which is what makes every page of one cursor read the same
// consistent data no matter how much ingest lands between requests.
type cursorState struct {
	stream *exec.Stream
	view   exec.Store
	// fingerprint is the normalized query shape (diagnostics only).
	fingerprint string
	// pageSize is the default tuple count per page: the limit of the
	// request that opened the cursor, overridable per continuation.
	pageSize int
	expires  time.Time
	// prep is the prepared query the scan executes (slow-log accounting
	// on later pages); trace is the opening request's trace, which the
	// stream keeps appending wave spans to (nil when untraced).
	prep  *engine.Prepared
	trace *obs.Trace
}

// cursorRegistry stores open cursors under opaque single-use tokens.
// A token is claimed (removed) by the continuation request that
// presents it and the remainder of the stream is re-registered under a
// fresh token, so a token can never be replayed and concurrent
// continuations of one cursor cannot race on the stream. Capacity and
// TTL bound the snapshots the server pins on behalf of absent clients:
// beyond either, a cursor answers 410 and the client restarts its scan.
type cursorRegistry struct {
	mu      sync.Mutex
	entries map[string]*cursorState
	// order tracks insertion order for capacity eviction; stale tokens
	// (already claimed) are skipped when popped, and swept out by put once
	// they outnumber the open cursors.
	order   []string
	cap     int
	ttl     time.Duration
	expired atomic.Int64
	evicted atomic.Int64
}

// Cursor registry defaults: enough open scans for a busy service,
// short enough that an abandoned scan releases its pinned snapshot
// quickly.
const (
	DefaultCursorCap = 1024
	DefaultCursorTTL = 2 * time.Minute
)

func newCursorRegistry(capacity int, ttl time.Duration) *cursorRegistry {
	if capacity <= 0 {
		capacity = DefaultCursorCap
	}
	if ttl <= 0 {
		ttl = DefaultCursorTTL
	}
	return &cursorRegistry{entries: make(map[string]*cursorState), cap: capacity, ttl: ttl}
}

// put registers a cursor under a fresh opaque token, evicting expired
// entries and — at capacity — the oldest open cursor.
func (c *cursorRegistry) put(st *cursorState) (string, error) {
	raw := make([]byte, 16)
	if _, err := rand.Read(raw); err != nil {
		return "", fmt.Errorf("serve: cursor token: %w", err)
	}
	token := hex.EncodeToString(raw)
	now := time.Now()
	st.expires = now.Add(c.ttl)

	c.mu.Lock()
	defer c.mu.Unlock()
	for tok, e := range c.entries {
		if now.After(e.expires) {
			e.stream.Close()
			delete(c.entries, tok)
			c.expired.Add(1)
		}
	}
	for len(c.entries) >= c.cap && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		if e, ok := c.entries[victim]; ok {
			e.stream.Close()
			delete(c.entries, victim)
			c.evicted.Add(1)
		}
	}
	c.entries[token] = st
	c.order = append(c.order, token)
	// A scan claims its token on the next page, long before capacity makes
	// anything pop: without the sweep order keeps every token ever issued.
	if len(c.order) > 2*len(c.entries)+16 {
		open := make([]string, 0, 2*len(c.entries)+16)
		for _, tok := range c.order {
			if _, ok := c.entries[tok]; ok {
				open = append(open, tok)
			}
		}
		c.order = open
	}
	return token, nil
}

// claim removes and returns the cursor behind a token; nil means the
// token is unknown, already used, evicted or expired — all answered 410,
// the client restarts its scan.
func (c *cursorRegistry) claim(token string) *cursorState {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.entries[token]
	if !ok {
		return nil
	}
	delete(c.entries, token)
	if time.Now().After(st.expires) {
		st.stream.Close()
		c.expired.Add(1)
		return nil
	}
	return st
}

// closeAll closes every registered cursor and releases the snapshots
// they pin — the shutdown path. Tokens presented afterwards answer 410,
// which is the contract expired cursors already have.
func (c *cursorRegistry) closeAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for tok, e := range c.entries {
		e.stream.Close()
		delete(c.entries, tok)
	}
	c.order = nil
}

// open reports the number of cursors currently registered.
func (c *cursorRegistry) open() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
