package value

import "strings"

// Tuple is an ordered list of values, positionally aligned with a relation
// schema's attribute list.
type Tuple []Value

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether two tuples have the same length and Go-equal values
// in every position (nulls compare equal here; this is identity, not SQL
// equality).
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically position by position, with shorter
// tuples ordering before longer ones that share a prefix.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key returns a collision-free string encoding of the tuple, suitable for
// use as a Go map key.
func (t Tuple) Key() string {
	return string(t.AppendKey(make([]byte, 0, 16*len(t))))
}

// KeyBufSize is the size of the stack buffer a probe encodes a lookup key
// into (var kb [value.KeyBufSize]byte; key := x.AppendKey(kb[:0])): room
// for a few integer columns or a short string. A longer key spills to the
// heap, as append does.
const KeyBufSize = 64

// AppendKey appends the bytes of Key() to dst, for callers that look keys
// up from a buffer they reuse.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.AppendKey(dst)
	}
	return dst
}

// Project returns the tuple restricted to the given positions, in order.
func (t Tuple) Project(positions []int) Tuple {
	out := make(Tuple, len(positions))
	for i, p := range positions {
		out[i] = t[p]
	}
	return out
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// KeyOf is a convenience for encoding a subset of a tuple's positions as a
// map key without materializing the projection.
func KeyOf(t Tuple, positions []int) string {
	return string(AppendKeyOf(make([]byte, 0, 16*len(positions)), t, positions))
}

// AppendKeyOf appends the bytes of KeyOf(t, positions) to dst, for callers
// that look keys up from a buffer they reuse.
func AppendKeyOf(dst []byte, t Tuple, positions []int) []byte {
	for _, p := range positions {
		dst = t[p].AppendKey(dst)
	}
	return dst
}
