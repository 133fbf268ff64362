package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"bcq/internal/exec"
	"bcq/internal/live"
	"bcq/internal/value"
)

// queryRequest is the POST /query body.
type queryRequest struct {
	// Query is the SPC query text; "attr = ?" placeholders bind Args
	// positionally.
	Query string `json:"query"`
	// Args are the placeholder arguments: JSON null, integer or string.
	Args []json.RawMessage `json:"args"`
	// TimeoutMS overrides the server's default per-request deadline.
	TimeoutMS int64 `json:"timeout_ms"`
	// Limit > 0 switches the request to the streamed, paged path: at most
	// Limit answer tuples are returned, the response streams as they are
	// produced, and — when more answers remain — next_cursor carries an
	// opaque token that continues the scan on the same pinned snapshot.
	// Paged responses bypass the result cache.
	Limit int64 `json:"limit"`
	// Cursor continues a previous paged request. Tokens are single-use:
	// each page invalidates its token and returns a fresh one. When set,
	// Query and Args must be absent (the cursor carries the whole scan).
	Cursor string `json:"cursor"`
	// Debug asks for the diagnostics block in the response: the executed
	// plan (estimates and actuals) and, with tracing active, the span
	// tree. Debug requests always run traced.
	Debug bool `json:"debug"`
}

// ingestRequest is the POST /ingest body.
type ingestRequest struct {
	Ops []opRequest `json:"ops"`
}

// opRequest is one write op: {"op": "insert"|"delete", "rel": ...,
// "tuple": [...]}.
type opRequest struct {
	Op    string            `json:"op"`
	Rel   string            `json:"rel"`
	Tuple []json.RawMessage `json:"tuple"`
}

// decodeValue converts one JSON scalar into a database value: null,
// integer or string. Fractional numbers have no database representation
// and are rejected. Integer literals and escape-free ASCII strings — what
// arguments nearly always are — are read straight off the raw bytes;
// everything else, every error included, is decodeValueJSON's.
func decodeValue(raw json.RawMessage) (value.Value, error) {
	if v, ok := decodePlain(raw); ok {
		return v, nil
	}
	return decodeValueJSON(raw)
}

// decodePlain reads the two literal forms that need no decoder: a string
// of printable ASCII without quotes or backslashes, and an integer of at
// most 18 digits (so it cannot overflow) in JSON's own spelling — no
// leading zeros, no sign but '-'. It declines anything else.
func decodePlain(raw []byte) (value.Value, bool) {
	n := len(raw)
	if n >= 2 && raw[0] == '"' && raw[n-1] == '"' {
		for _, c := range raw[1 : n-1] {
			if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
				return value.Null, false
			}
		}
		return value.Str(string(raw[1 : n-1])), true
	}
	digits, neg := raw, n > 0 && raw[0] == '-'
	if neg {
		digits = raw[1:]
	}
	if len(digits) == 0 || len(digits) > 18 || (digits[0] == '0' && len(digits) > 1) {
		return value.Null, false
	}
	var i int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return value.Null, false
		}
		i = i*10 + int64(c-'0')
	}
	if neg {
		i = -i
	}
	return value.Int(i), true
}

// decodeValueJSON is decodeValue through encoding/json: the reference for
// every literal, and the only path that rejects one.
func decodeValueJSON(raw json.RawMessage) (value.Value, error) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return value.Null, fmt.Errorf("invalid value %s: %w", raw, err)
	}
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case json.Number:
		i, err := x.Int64()
		if err != nil {
			return value.Null, fmt.Errorf("value %s is not an integer (fractional values are unsupported)", x)
		}
		return value.Int(i), nil
	case string:
		return value.Str(x), nil
	default:
		return value.Null, fmt.Errorf("value %s has unsupported type %T (null, integer or string expected)", raw, v)
	}
}

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
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return append(dst, jsonString(s)...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// decodeArgs converts a JSON argument vector.
func decodeArgs(raws []json.RawMessage) ([]value.Value, error) {
	out := make([]value.Value, len(raws))
	for i, raw := range raws {
		v, err := decodeValue(raw)
		if err != nil {
			return nil, fmt.Errorf("argument %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// decodeOps converts an ingest batch.
func decodeOps(reqs []opRequest) ([]live.Op, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("empty ops list")
	}
	out := make([]live.Op, len(reqs))
	for i, op := range reqs {
		tu := make(value.Tuple, len(op.Tuple))
		for j, raw := range op.Tuple {
			v, err := decodeValue(raw)
			if err != nil {
				return nil, fmt.Errorf("op %d, attribute %d: %w", i, j, err)
			}
			tu[j] = v
		}
		switch op.Op {
		case "insert":
			out[i] = live.Insert(op.Rel, tu)
		case "delete":
			out[i] = live.Delete(op.Rel, tu)
		default:
			return nil, fmt.Errorf("op %d: unknown op %q (insert or delete)", i, op.Op)
		}
	}
	return out, nil
}

// appendResult renders an execution result as the canonical "result"
// object of a /query response — cols, tuples in the executor's sorted
// order, stats, dq_size — with the appenders a page is written with, so
// equal results produce equal bytes (the property the epoch-keyed cache
// and its tests rely on) and a buffered answer and a drained scan agree
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
