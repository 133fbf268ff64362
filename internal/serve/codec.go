package serve

import (
	"slices"
	"strconv"

	"bcq/internal/exec"
	"bcq/internal/value"
)

// appendRow appends one answer tuple as a JSON array, byte for byte what
// json.Marshal gives for the tuple's columns boxed as int64, string or
// nil, without boxing the values or allocating per row.
func appendRow(dst []byte, tu value.Tuple) []byte {
	dst = append(dst, '[')
	for j, v := range tu {
		if j > 0 {
			dst = append(dst, ',')
		}
		switch v.Kind() {
		case value.KindInt:
			dst = strconv.AppendInt(dst, v.AsInt(), 10)
		case value.KindString:
			dst = appendJSONString(dst, v.AsString())
		default:
			dst = append(dst, "null"...)
		}
	}
	return append(dst, ']')
}

// appendJSONString appends s as a JSON literal with jsonString's quoting.
// Printable ASCII that encoding/json leaves alone is copied as is; a
// string holding anything it would escape (quotes, backslashes, control
// bytes, the HTML characters, any non-ASCII byte) goes through it.
func appendJSONString(dst []byte, s string) []byte {
	if !jsonPlain(s) {
		return append(dst, jsonString(s)...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// jsonPlain reports whether encoding/json quotes s without escaping any
// of it: printable ASCII other than quotes, backslashes and the HTML
// characters.
func jsonPlain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// appendResult renders an execution result as the canonical "result"
// object of a /query response — cols, tuples in the executor's sorted
// order, stats, dq_size — with the appenders a page is written with, so
// equal results produce equal bytes (the property the result cache and
// its tests rely on) and a buffered answer and a drained scan agree
// byte for byte. The buffer is sized once, from the tuple count and the
// first row's width.
func appendResult(res *exec.Result) []byte {
	buf := appendResultHead(make([]byte, 0, 256), res.Cols)
	for i, tu := range res.Tuples {
		if i > 0 {
			buf = append(buf, ',')
		}
		at := len(buf)
		buf = appendRow(buf, tu)
		if i == 0 {
			buf = slices.Grow(buf, (len(buf)-at+1)*(len(res.Tuples)-1)+128)
		}
	}
	return appendResultTail(buf, res)
}

// appendResultHead opens a result object up to its first tuple.
func appendResultHead(dst []byte, cols []string) []byte {
	dst = append(dst, `{"cols":[`...)
	for i, c := range cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, c)
	}
	return append(dst, `],"tuples":[`...)
}

// appendResultTail closes a result object after its last tuple with the
// access statistics and |D_Q|.
func appendResultTail(dst []byte, res *exec.Result) []byte {
	dst = append(dst, `],"stats":{"index_lookups":`...)
	dst = strconv.AppendInt(dst, res.Stats.IndexLookups, 10)
	dst = append(dst, `,"tuples_fetched":`...)
	dst = strconv.AppendInt(dst, res.Stats.TuplesFetched, 10)
	dst = append(dst, `,"tuples_scanned":`...)
	dst = strconv.AppendInt(dst, res.Stats.TuplesScanned, 10)
	dst = append(dst, `},"dq_size":`...)
	dst = strconv.AppendInt(dst, res.DQSize, 10)
	return append(dst, '}')
}
