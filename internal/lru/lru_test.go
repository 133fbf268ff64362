package lru

import "testing"

func TestEvictionOrder(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if evicted := c.Put("a", 10); evicted {
		t.Error("overwrite reported an eviction")
	}
	// "b" is now least recently used; inserting "c" evicts it.
	if evicted := c.Put("c", 3); !evicted {
		t.Error("insert past capacity did not evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("a = %d, %v; want the overwritten 10", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New[string](2)
	c.Put("a", "x")
	c.Put("b", "y")
	c.Get("a") // a becomes most recent; b is the eviction candidate
	c.Put("c", "z")
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived")
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

// TestGetBytesRefreshesRecency: a lookup by bytes finds what Get finds
// and refreshes recency exactly like it, without allocating.
func TestGetBytesRefreshesRecency(t *testing.T) {
	c := New[string](2)
	c.Put("a", "x")
	c.Put("b", "y")
	key := []byte("a")
	if v, ok := c.GetBytes(key); !ok || v != "x" {
		t.Fatalf("GetBytes(a) = %q, %v", v, ok)
	}
	// a is now most recent; b is the eviction candidate.
	c.Put("c", "z")
	if _, ok := c.GetBytes([]byte("b")); ok {
		t.Error("least recently used entry survived")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("entry refreshed by GetBytes evicted")
	}
	if _, ok := c.GetBytes([]byte("missing")); ok {
		t.Error("GetBytes found a key never put")
	}
	if n := testing.AllocsPerRun(100, func() { c.GetBytes(key) }); n != 0 {
		t.Errorf("GetBytes allocates %v times per lookup, want 0", n)
	}
}
