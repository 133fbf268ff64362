// Package value defines the typed values and tuples that flow through the
// storage engine, the SPC query representation and the executors.
//
// Values are small immutable scalars (null, int64, string). They are
// comparable with == (so they can key Go maps directly) and have a total
// order so relations can be sorted deterministically for tests and output.
package value

import (
	"fmt"
	"hash/maphash"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Value can take.
type Kind uint8

const (
	// KindNull is the absent value. It is used by the Lemma 1 single-relation
	// encoding (gD pads attributes of other relations with nulls) and as the
	// "unset" sentinel in executor bindings. Null equals nothing, including
	// itself, under query equality semantics (see EqualsSQL), but Null == Null
	// as a Go value, which is what map keys and Compare use.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindString is an immutable string.
	KindString
)

// String returns the kind name for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a scalar database value. The zero Value is Null.
//
// Value is a comparable struct: two Values are == exactly when they have the
// same kind and the same payload. This makes Value directly usable as a map
// key, which the index implementations rely on.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// Null is the null value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// String returns a string value.
func Str(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the value's runtime type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics if the value is not an int;
// callers are expected to have checked Kind.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("value: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsString returns the string payload. It panics if the value is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("value: AsString on %s value", v.kind))
	}
	return v.s
}

// EqualsSQL implements query equality semantics: null compares equal to
// nothing (including null). All other comparisons match Go ==.
func (v Value) EqualsSQL(w Value) bool {
	if v.kind == KindNull || w.kind == KindNull {
		return false
	}
	return v == w
}

// Compare returns -1, 0 or +1 ordering v relative to w. The order is total:
// null < ints < strings, ints by numeric order, strings lexicographically.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
		return 0
	default:
		return strings.Compare(v.s, w.s)
	}
}

// String renders the value for display: null, bare integers, single-quoted
// strings (with internal quotes doubled, SQL style).
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	default:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	}
}

// Parse converts a literal token into a Value. Accepted forms:
// "null", decimal integers (with optional sign), and single- or
// double-quoted strings. Anything else is an error.
func Parse(tok string) (Value, error) {
	t := strings.TrimSpace(tok)
	if t == "" {
		return Null, fmt.Errorf("value: empty literal")
	}
	if strings.EqualFold(t, "null") {
		return Null, nil
	}
	if len(t) >= 2 {
		if (t[0] == '\'' && t[len(t)-1] == '\'') || (t[0] == '"' && t[len(t)-1] == '"') {
			body := t[1 : len(t)-1]
			if t[0] == '\'' {
				body = strings.ReplaceAll(body, "''", "'")
			}
			return Str(body), nil
		}
	}
	i, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return Null, fmt.Errorf("value: cannot parse literal %q", tok)
	}
	return Int(i), nil
}

// Hash returns a word for hashing v into an open-addressed table: an
// integer is its own bits (the table mixes them, one multiplication), a
// string goes through maphash under seed, and null is zero. Equal values
// hash equally; unequal ones may collide — Int(0) and null, Int(1) and
// Str("1") — so a table confirms a slot by comparing values.
func (v Value) Hash(seed maphash.Seed) uint64 {
	switch v.kind {
	case KindInt:
		return uint64(v.i)
	case KindString:
		return maphash.String(seed, v.s)
	}
	return 0
}

// AppendKey appends a self-delimiting binary encoding of v to dst. Encodings
// of distinct values never collide, so the resulting byte strings can be used
// as composite map keys. The encoding is not order-preserving.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindInt:
		dst = append(dst, 0x01)
		u := uint64(v.i)
		return append(dst,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	default:
		dst = append(dst, 0x02)
		n := len(v.s)
		dst = append(dst, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
		return append(dst, v.s...)
	}
}

// DecodeValue decodes the first value of an AppendKey encoding and returns it
// together with the remaining bytes. The WAL and segment file formats use the
// AppendKey encoding on disk, so durable state round-trips through exactly the
// bytes the in-memory index keys use.
func DecodeValue(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Null, nil, fmt.Errorf("value: decode on empty input")
	}
	switch b[0] {
	case 0x00:
		return Null, b[1:], nil
	case 0x01:
		if len(b) < 9 {
			return Null, nil, fmt.Errorf("value: truncated int encoding (%d bytes)", len(b))
		}
		u := uint64(b[1])<<56 | uint64(b[2])<<48 | uint64(b[3])<<40 | uint64(b[4])<<32 |
			uint64(b[5])<<24 | uint64(b[6])<<16 | uint64(b[7])<<8 | uint64(b[8])
		return Int(int64(u)), b[9:], nil
	case 0x02:
		if len(b) < 5 {
			return Null, nil, fmt.Errorf("value: truncated string header (%d bytes)", len(b))
		}
		n := int(b[1])<<24 | int(b[2])<<16 | int(b[3])<<8 | int(b[4])
		if n < 0 || len(b) < 5+n {
			return Null, nil, fmt.Errorf("value: truncated string payload (want %d, have %d)", n, len(b)-5)
		}
		return Str(string(b[5 : 5+n])), b[5+n:], nil
	default:
		return Null, nil, fmt.Errorf("value: unknown encoding tag 0x%02x", b[0])
	}
}
