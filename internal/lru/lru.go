// Package lru is the one LRU implementation the caches of this module
// share: a string-keyed, move-to-front bounded map. It is deliberately
// minimal — no locking, no statistics — so each user composes its own
// policy on top: the engine serializes access under its mutex and keeps
// plans and preparation errors in two instances (errors must never
// displace plans), the serving layer wraps one in a mutex plus hit/miss
// counters for the result cache. A caller that builds its keys in a
// reused buffer looks them up with GetBytes, which does not allocate; only
// Put turns a key into a string.
package lru

import "container/list"

// entry is one cache slot.
type entry[V any] struct {
	key string
	val V
}

// Cache is a plain LRU over string keys. It is not safe for concurrent
// use; callers serialize access.
type Cache[V any] struct {
	cap   int
	order *list.List               // front = most recently used
	byKey map[string]*list.Element // value: *entry[V]
}

// New returns an empty cache bounded to capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element, capacity)}
}

// Get returns the value under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	return c.use(c.byKey[key])
}

// GetBytes is Get for a key held in a byte slice. The map index converts
// the slice in place (the compiler's string(k) lookup idiom), so the call
// allocates nothing and k is not retained.
func (c *Cache[V]) GetBytes(k []byte) (V, bool) {
	return c.use(c.byKey[string(k)])
}

// use returns the value of a found slot, marking it most recently used.
func (c *Cache[V]) use(el *list.Element) (V, bool) {
	if el == nil {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put inserts or overwrites the value under key, marking it most
// recently used, and reports whether an older entry was evicted.
func (c *Cache[V]) Put(key string, val V) (evicted bool) {
	if el, ok := c.byKey[key]; ok {
		el.Value = &entry[V]{key: key, val: val}
		c.order.MoveToFront(el)
		return false
	}
	c.byKey[key] = c.order.PushFront(&entry[V]{key: key, val: val})
	if c.order.Len() <= c.cap {
		return false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	delete(c.byKey, oldest.Value.(*entry[V]).key)
	return true
}

// Remove drops the entry under key if present.
func (c *Cache[V]) Remove(key string) {
	if el, ok := c.byKey[key]; ok {
		c.order.Remove(el)
		delete(c.byKey, key)
	}
}

// Len returns the number of entries.
func (c *Cache[V]) Len() int { return c.order.Len() }
