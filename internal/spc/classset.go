package spc

import "math/bits"

// ClassSet is a bitset over equivalence-class ids of a Closure. Class ids
// are small and dense (at most the number of attribute occurrences in the
// query), so a word-array bitset is both compact and fast; every closure
// computation in the deduction engine manipulates these sets.
type ClassSet struct {
	words []uint64
}

// NewClassSet returns an empty set sized for n classes.
func NewClassSet(n int) ClassSet {
	return ClassSet{words: make([]uint64, (n+63)/64)}
}

// CutClassSets makes each of sets an empty set sized for n classes, all
// cut from one array: the allocation of one set buys them all. A set that
// later grows past n moves to an array of its own, never into its
// neighbour.
func CutClassSets(n int, sets ...*ClassSet) {
	words := (n + 63) / 64
	slab := make([]uint64, len(sets)*words)
	for i, s := range sets {
		s.words = slab[i*words : (i+1)*words : (i+1)*words]
	}
}

// Add inserts class id c, growing the set if needed.
func (s *ClassSet) Add(c int) {
	w := c / 64
	for w >= len(s.words) {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << uint(c%64)
}

// Remove deletes class id c if present.
func (s *ClassSet) Remove(c int) {
	w := c / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << uint(c%64)
	}
}

// Has reports membership of class id c.
func (s ClassSet) Has(c int) bool {
	w := c / 64
	return w < len(s.words) && s.words[w]&(1<<uint(c%64)) != 0
}

// AddAll inserts every member of t.
func (s *ClassSet) AddAll(t ClassSet) {
	for len(s.words) < len(t.words) {
		s.words = append(s.words, 0)
	}
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// ContainsAll reports whether every member of t is in s.
func (s ClassSet) ContainsAll(t ClassSet) bool {
	for i, w := range t.words {
		var sw uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if w&^sw != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of members.
func (s ClassSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set has no members.
func (s ClassSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// CopyFrom makes s equal to t, reusing s's array when it is large enough.
func (s *ClassSet) CopyFrom(t ClassSet) {
	s.words = append(s.words[:0], t.words...)
}

// Clone returns an independent copy.
func (s ClassSet) Clone() ClassSet {
	return ClassSet{words: append([]uint64(nil), s.words...)}
}

// Members returns the class ids in ascending order.
func (s ClassSet) Members() []int {
	var out []int
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*64+b)
			w &= w - 1
		}
	}
	return out
}

// Next returns the smallest member that is at least c, or -1 when there is
// none: `for c := s.Next(0); c >= 0; c = s.Next(c + 1)` walks the set in
// ascending order without building the Members slice.
func (s ClassSet) Next(c int) int {
	if c < 0 {
		c = 0
	}
	for w := c / 64; w < len(s.words); w++ {
		word := s.words[w]
		if w == c/64 {
			word &^= 1<<uint(c%64) - 1
		}
		if word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// Equal reports set equality.
func (s ClassSet) Equal(t ClassSet) bool {
	n := len(s.words)
	if len(t.words) > n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(t.words) {
			b = t.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}
