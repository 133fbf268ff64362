// Package clock is the one bounded cache the caches of this module share:
// a string-keyed CLOCK (second-chance) cache whose lookups take no lock
// and write nothing shared while the entry they find is already marked
// referenced. It keeps no statistics, so each user composes its own policy
// on top: the engine keeps plans, preparation errors and parsed texts in
// three instances under its mutex (errors must never displace plans), and
// the serving layer counts hits and misses around one for the result
// cache.
//
// Concurrency contract: Get and GetBytes run concurrently with each other
// and with one writer. Put, PutBytes and Remove are writes, and Len reads
// what they keep: the caller serializes these four. A lookup that races a write may miss an entry
// that is present (the caller recomputes), but a hit always returns a
// value that was put under the exact key asked for.
//
// Entries sit in a ring of capacity slots, in insertion order. A new entry
// starts unreferenced; a hit marks it referenced; an overwrite stores a
// fresh node marked referenced. When the ring is full, a Put of a new key
// moves the hand around the ring, clearing set reference bits, and evicts
// the first entry it finds unreferenced. The index beside the ring is an
// open-addressed table, a power of two at least twice the capacity, with
// linear probing over atomic pointers to immutable nodes; a delete closes
// its gap by shifting the entries after it back, so there are no
// tombstones.
package clock

import (
	"hash/maphash"
	"sync/atomic"
)

// node is one entry. Everything but the reference bit is fixed at
// construction, so a reader holding a node reads a consistent entry.
type node[V any] struct {
	hash uint64
	key  string
	val  V
	slot int // the entry's ring slot
	ref  atomic.Bool
}

// Cache is a CLOCK cache over string keys.
type Cache[V any] struct {
	seed  maphash.Seed
	table []atomic.Pointer[node[V]] // len a power of two ≥ 2 × capacity
	ring  []*node[V]                // nil where no entry sits
	hand  int                       // the next ring slot the sweep looks at
	fill  int                       // ring slots [fill, capacity) were never used
	free  []int                     // ring slots an entry was removed from
}

// New returns an empty cache bounded to capacity entries, at least one.
func New[V any](capacity int) *Cache[V] {
	capacity = max(capacity, 1)
	size := 2
	for size < 2*capacity {
		size <<= 1
	}
	return &Cache[V]{
		seed:  maphash.MakeSeed(),
		table: make([]atomic.Pointer[node[V]], size),
		ring:  make([]*node[V], capacity),
	}
}

// Get returns the value under key and marks it referenced.
func (c *Cache[V]) Get(key string) (V, bool) {
	_, nd := probe(c.table, maphash.String(c.seed, key), key)
	return hit(nd)
}

// GetBytes is Get for a key held in a byte slice. It allocates nothing
// and does not retain k.
func (c *Cache[V]) GetBytes(k []byte) (V, bool) {
	_, nd := probe(c.table, maphash.Bytes(c.seed, k), k)
	return hit(nd)
}

// hit returns the value of a found node, setting its reference bit only
// when the bit is clear: repeated hits on a hot entry store nothing.
func hit[V any](nd *node[V]) (V, bool) {
	if nd == nil {
		var zero V
		return zero, false
	}
	if !nd.ref.Load() {
		nd.ref.Store(true)
	}
	return nd.val, true
}

// probe walks key's probe chain from its home slot. It returns the node
// holding key and its index, or a nil node and the index of the empty
// slot that ends the chain (-1 when it looked at every slot and found
// neither, which only a lookup racing a write can see).
func probe[K string | []byte, V any](t []atomic.Pointer[node[V]], h uint64, key K) (int, *node[V]) {
	mask := uint64(len(t) - 1)
	i := h & mask
	for range len(t) {
		nd := t[i].Load()
		if nd == nil {
			return int(i), nil
		}
		if nd.hash == h && nd.key == string(key) {
			return int(i), nd
		}
		i = (i + 1) & mask
	}
	return -1, nil
}

// Put inserts or overwrites the value under key and reports whether an
// older entry was evicted to make room.
func (c *Cache[V]) Put(key string, val V) (evicted bool) {
	h := maphash.String(c.seed, key)
	i, old := probe(c.table, h, key)
	if old != nil {
		c.overwrite(i, old, val)
		return false
	}
	return c.insert(i, h, key, val)
}

// PutBytes is Put for a key held in a byte slice. The key becomes a
// string once, and only when it is new: an overwrite keeps the old key.
func (c *Cache[V]) PutBytes(k []byte, val V) (evicted bool) {
	h := maphash.Bytes(c.seed, k)
	i, old := probe(c.table, h, k)
	if old != nil {
		c.overwrite(i, old, val)
		return false
	}
	return c.insert(i, h, string(k), val)
}

// overwrite replaces the node at table index i with a fresh, referenced
// node for the same key and ring slot.
func (c *Cache[V]) overwrite(i int, old *node[V], val V) {
	nd := &node[V]{hash: old.hash, key: old.key, val: val, slot: old.slot}
	nd.ref.Store(true)
	c.ring[nd.slot] = nd
	c.table[i].Store(nd)
}

// insert adds a new, unreferenced entry whose probe chain ends at table
// index i, evicting one first when the ring is full.
func (c *Cache[V]) insert(i int, h uint64, key string, val V) (evicted bool) {
	var slot int
	switch {
	case len(c.free) > 0:
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	case c.fill < len(c.ring):
		slot = c.fill
		c.fill++
	default:
		slot = c.sweep()
		c.unlink(c.ring[slot])
		evicted = true
		// The shift may have moved the end of key's chain.
		i, _ = probe(c.table, h, key)
	}
	nd := &node[V]{hash: h, key: key, val: val, slot: slot}
	c.ring[slot] = nd
	c.table[i].Store(nd)
	return evicted
}

// sweep moves the hand around the full ring, clearing set reference bits,
// and returns the slot of the first entry it finds unreferenced, leaving
// the hand just past it. After a whole lap it takes the entry under the
// hand whatever its bit, so a reader that keeps marking entries cannot
// hold the writer.
func (c *Cache[V]) sweep() int {
	for step := 0; ; step++ {
		nd := c.ring[c.hand]
		slot := c.hand
		c.hand++
		if c.hand == len(c.ring) {
			c.hand = 0
		}
		if !nd.ref.Load() || step == len(c.ring) {
			return slot
		}
		nd.ref.Store(false)
	}
}

// Remove drops the entry under key if present.
func (c *Cache[V]) Remove(key string) {
	_, nd := probe(c.table, maphash.String(c.seed, key), key)
	if nd == nil {
		return
	}
	c.unlink(nd)
	c.ring[nd.slot] = nil
	c.free = append(c.free, nd.slot)
}

// unlink deletes nd from the table by backward shift: each later entry of
// the run that would no longer be reachable from its home slot moves into
// the gap, and the last gap is cleared. A node may sit in two slots for a
// moment, and a reader past the cleared gap misses; neither gives a wrong
// answer.
func (c *Cache[V]) unlink(nd *node[V]) {
	t := c.table
	mask := uint64(len(t) - 1)
	gap := nd.hash & mask
	for t[gap].Load() != nd {
		gap = (gap + 1) & mask
	}
	for j := (gap + 1) & mask; ; j = (j + 1) & mask {
		next := t[j].Load()
		if next == nil {
			break
		}
		// next stays when its home lies cyclically in (gap, j].
		if home := next.hash & mask; (j-home)&mask < (j-gap)&mask {
			continue
		}
		t[gap].Store(next)
		gap = j
	}
	t[gap].Store(nil)
}

// Len returns the number of entries: the ring slots ever filled less
// those an entry was removed from and no new one took.
func (c *Cache[V]) Len() int { return c.fill - len(c.free) }
