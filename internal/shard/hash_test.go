package shard

import (
	"hash/fnv"
	"testing"

	"bcq/internal/value"
)

// TestHashKeyIsFNV1a pins the written-out shard hash to hash/fnv's New64a
// over the relation name, a zero byte and the encoded key — the function
// every existing durable store was placed by.
func TestHashKeyIsFNV1a(t *testing.T) {
	keys := []value.Tuple{
		nil,
		{value.Int(0)},
		{value.Int(-1), value.Int(1 << 40)},
		{value.Str("")},
		{value.Str("a0"), value.Null, value.Str("héllo")},
	}
	for _, rel := range []string{"", "friends", "in_album"} {
		for _, tu := range keys {
			key := tu.AppendKey(nil)
			h := fnv.New64a()
			h.Write([]byte(rel))
			h.Write([]byte{0})
			h.Write(key)
			if got, want := hashKey(rel, key), h.Sum64(); got != want {
				t.Errorf("hashKey(%q, %v) = %#x, fnv.New64a gives %#x", rel, tu, got, want)
			}
		}
	}
}
