package storage

import (
	"math"
	"testing"
	"unsafe"

	"bcq/internal/value"
)

// TestIndexEntryIsTheWitness: an entry is 16 bytes, and it gives back
// the relation's own tuple (the same values, not a copy) and its
// position, for a tuple of any arity, the empty one included. A position
// past 32 bits is refused, not wrapped.
func TestIndexEntryIsTheWitness(t *testing.T) {
	if n := unsafe.Sizeof(IndexEntry{}); n != 16 {
		t.Fatalf("an IndexEntry is %d bytes, want 16", n)
	}
	for _, tu := range []value.Tuple{
		nil,
		{},
		{value.Int(7)},
		{value.Str("p3"), value.Str("a1")},
		{value.Int(1), value.Null, value.Str("x")},
	} {
		for _, pos := range []int{0, 1, 1 << 20, math.MaxUint32} {
			e := MakeIndexEntry(tu, pos)
			w := e.Witness()
			if !w.Equal(tu) || e.Pos() != pos {
				t.Fatalf("MakeIndexEntry(%v, %d) gives back %v at %d", tu, pos, w, e.Pos())
			}
			if len(tu) > 0 && &w[0] != &tu[0] {
				t.Fatalf("the witness of %v is a copy, not the tuple", tu)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a position past 32 bits was taken")
		}
	}()
	MakeIndexEntry(value.Tuple{value.Int(1)}, math.MaxUint32+1)
}
