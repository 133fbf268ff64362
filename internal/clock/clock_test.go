package clock

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestEvictionOrder(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if evicted := c.Put("a", 10); evicted {
		t.Error("overwrite reported an eviction")
	}
	// The overwrite left "a" referenced and "b" is not; inserting "c"
	// clears a's bit and evicts b.
	if evicted := c.Put("c", 3); !evicted {
		t.Error("insert past capacity did not evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("unreferenced entry survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("a = %d, %v; want the overwritten 10", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestGetMarksReferenced(t *testing.T) {
	c := New[string](2)
	c.Put("a", "x")
	c.Put("b", "y")
	c.Get("a") // a is referenced; b is the eviction candidate
	c.Put("c", "z")
	if _, ok := c.Get("a"); !ok {
		t.Error("referenced entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("unreferenced entry survived")
	}
}

func TestRemove(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Remove("a")
	c.Remove("missing") // no-op
	if _, ok := c.Get("a"); ok || c.Len() != 0 {
		t.Error("removed entry still present")
	}
}

// TestGetBytesMarksReferenced: a lookup by bytes finds what Get finds and
// marks the entry referenced exactly like it, without allocating.
func TestGetBytesMarksReferenced(t *testing.T) {
	c := New[string](2)
	c.Put("a", "x")
	c.Put("b", "y")
	key := []byte("a")
	if v, ok := c.GetBytes(key); !ok || v != "x" {
		t.Fatalf("GetBytes(a) = %q, %v", v, ok)
	}
	// a is now referenced; b is the eviction candidate.
	c.Put("c", "z")
	if _, ok := c.GetBytes([]byte("b")); ok {
		t.Error("unreferenced entry survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("entry referenced by GetBytes evicted")
	}
	if _, ok := c.GetBytes([]byte("missing")); ok {
		t.Error("GetBytes found a key never put")
	}
	if n := testing.AllocsPerRun(100, func() { c.GetBytes(key) }); n != 0 {
		t.Errorf("GetBytes allocates %v times per lookup, want 0", n)
	}
}

// model is the reference CLOCK: the same ring, kept as a plain slice and
// searched linearly, with no index.
type model struct {
	slots []modelSlot
	hand  int
	fill  int
	free  []int
}

type modelSlot struct {
	used bool
	ref  bool
	key  string
	val  int
}

func (m *model) find(key string) int {
	for i, s := range m.slots {
		if s.used && s.key == key {
			return i
		}
	}
	return -1
}

func (m *model) get(key string) (int, bool) {
	i := m.find(key)
	if i < 0 {
		return 0, false
	}
	m.slots[i].ref = true
	return m.slots[i].val, true
}

func (m *model) put(key string, val int) (evicted bool) {
	if i := m.find(key); i >= 0 {
		m.slots[i] = modelSlot{used: true, ref: true, key: key, val: val}
		return false
	}
	var slot int
	switch {
	case len(m.free) > 0:
		slot, m.free = m.free[len(m.free)-1], m.free[:len(m.free)-1]
	case m.fill < len(m.slots):
		slot = m.fill
		m.fill++
	default:
		for m.slots[m.hand].ref {
			m.slots[m.hand].ref = false
			m.hand = (m.hand + 1) % len(m.slots)
		}
		slot, evicted = m.hand, true
		m.hand = (m.hand + 1) % len(m.slots)
	}
	m.slots[slot] = modelSlot{used: true, key: key, val: val}
	return evicted
}

func (m *model) remove(key string) {
	if i := m.find(key); i >= 0 {
		m.slots[i] = modelSlot{}
		m.free = append(m.free, i)
	}
}

func (m *model) len() int {
	n := 0
	for _, s := range m.slots {
		if s.used {
			n++
		}
	}
	return n
}

// TestMatchesModel runs random Put/PutBytes/Get/GetBytes/Remove sequences
// against the cache and the reference CLOCK: every lookup, every eviction
// report and every Len must agree, and so must the contents at the end.
func TestMatchesModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			c := New[int](capacity)
			m := &model{slots: make([]modelSlot, capacity)}
			keys := 3 * capacity
			for step := range 20000 {
				key := "k" + strconv.Itoa(rng.Intn(keys))
				switch op := rng.Intn(10); {
				case op < 4:
					var v int
					var ok bool
					if op < 2 {
						v, ok = c.Get(key)
					} else {
						v, ok = c.GetBytes([]byte(key))
					}
					if mv, mok := m.get(key); v != mv || ok != mok {
						t.Fatalf("step %d: get(%s) = %d, %v; model %d, %v", step, key, v, ok, mv, mok)
					}
				case op < 9:
					var ev bool
					if op < 7 {
						ev = c.Put(key, step)
					} else {
						ev = c.PutBytes([]byte(key), step)
					}
					if mev := m.put(key, step); ev != mev {
						t.Fatalf("step %d: put(%s) evicted = %v; model %v", step, key, ev, mev)
					}
				default:
					c.Remove(key)
					m.remove(key)
				}
				if c.Len() != m.len() {
					t.Fatalf("step %d: len = %d; model %d", step, c.Len(), m.len())
				}
			}
			for k := range keys {
				key := "k" + strconv.Itoa(k)
				v, ok := c.Get(key)
				if mv, mok := m.get(key); v != mv || ok != mok {
					t.Errorf("final get(%s) = %d, %v; model %d, %v", key, v, ok, mv, mok)
				}
			}
		})
	}
}

// TestConcurrentLookupsNeverForeign: four readers look keys up by bytes
// while one writer puts and removes at a capacity that evicts constantly.
// Every value names its key, so a reader that got a value put under
// another key, or a torn one, sees it; a miss is always allowed.
func TestConcurrentLookupsNeverForeign(t *testing.T) {
	const universe = 64
	c := New[string](16)
	keys := make([][]byte, universe)
	for i := range keys {
		keys[i] = []byte("key-" + strconv.Itoa(i))
	}
	var (
		stop atomic.Bool
		hits atomic.Int64
		wg   sync.WaitGroup
	)
	for r := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				k := keys[rng.Intn(universe)]
				v, ok := c.GetBytes(k)
				if !ok {
					continue
				}
				hits.Add(1)
				if name, _, _ := strings.Cut(v, "="); name != string(k) {
					t.Errorf("GetBytes(%s) = %q, put under another key", k, v)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(99))
	for step := range 50000 {
		k := keys[rng.Intn(universe)]
		if rng.Intn(8) == 0 {
			c.Remove(string(k))
		} else {
			c.PutBytes(k, string(k)+"="+strconv.Itoa(step))
		}
	}
	stop.Store(true)
	wg.Wait()
	if hits.Load() == 0 {
		t.Error("no reader ever hit")
	}
}

// TestAllocs pins the allocation counts: a hit allocates nothing; a new
// key put at capacity allocates its key string and one node (the LRU this
// replaced allocated a list element besides); an overwrite reuses the old
// key and allocates only its node.
func TestAllocs(t *testing.T) {
	const capacity = 16
	c := New[int](capacity)
	const runs = 100
	keys := make([][]byte, capacity+runs+1)
	for i := range keys {
		keys[i] = []byte("key-" + strconv.Itoa(i))
	}
	for _, k := range keys[:capacity] {
		c.PutBytes(k, 1)
	}
	hot := keys[0]
	if n := testing.AllocsPerRun(runs, func() { c.GetBytes(hot) }); n != 0 {
		t.Errorf("hit allocates %v, want 0", n)
	}
	next := capacity
	if n := testing.AllocsPerRun(runs, func() {
		c.PutBytes(keys[next], 2)
		next++
	}); n != 2 {
		t.Errorf("put of a new key at capacity allocates %v, want 2", n)
	}
	if c.Len() != capacity {
		t.Fatalf("len = %d, want %d", c.Len(), capacity)
	}
	last := keys[next-1]
	if n := testing.AllocsPerRun(runs, func() { c.PutBytes(last, 3) }); n != 1 {
		t.Errorf("overwrite allocates %v, want 1", n)
	}
}
