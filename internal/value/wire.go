package value

import (
	"encoding/binary"
	"fmt"
)

// The framing primitives of the on-disk formats. The WAL and the segment
// file both frame AppendKey-encoded values with big-endian integers
// (written with encoding/binary) and u32-length-prefixed strings, so the
// string form and the bounds-checked readers have one copy, beside the
// value encoding they surround. Each Take returns the decoded item and
// the remaining bytes, and fails on short input instead of reading past
// it.

// AppendStr appends s behind its u32 length.
func AppendStr(dst []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(s))), s...)
}

// AppendStrs appends a u32 count and that many strings, as TakeStrs reads
// them.
func AppendStrs(dst []byte, ss []string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ss)))
	for _, s := range ss {
		dst = AppendStr(dst, s)
	}
	return dst
}

// TakeU32 decodes a big-endian u32.
func TakeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("truncated u32")
	}
	return binary.BigEndian.Uint32(b), b[4:], nil
}

// TakeU64 decodes a big-endian u64.
func TakeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("truncated u64")
	}
	return binary.BigEndian.Uint64(b), b[8:], nil
}

// TakeStr decodes a u32-length-prefixed string.
func TakeStr(b []byte) (string, []byte, error) {
	n, rest, err := TakeU32(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < uint64(n) {
		return "", nil, fmt.Errorf("truncated string (want %d, have %d)", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

// TakeStrs decodes a u32 count followed by that many strings.
func TakeStrs(b []byte) ([]string, []byte, error) {
	n, rest, err := TakeU32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n) > uint64(len(rest)/4) { // each string takes its u32 length at least
		return nil, nil, fmt.Errorf("%d strings in %d bytes", n, len(rest))
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		var s string
		s, rest, err = TakeStr(rest)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, rest, nil
}
