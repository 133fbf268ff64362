package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/value"
)

// The oracle: the reflective decoding the server used before the
// one-pass decoder — encoding/json's strict Decoder over the request
// structs with each argument kept raw and decoded again — plus the two
// body rules the decoder added: one JSON value and then only
// whitespace, and no more than maxBodyBytes.

type jsonQueryRequest struct {
	Query     string            `json:"query"`
	Args      []json.RawMessage `json:"args"`
	TimeoutMS int64             `json:"timeout_ms"`
	Limit     int64             `json:"limit"`
	Cursor    string            `json:"cursor"`
	Debug     bool              `json:"debug"`
}

type jsonIngestRequest struct {
	Ops []jsonOpRequest `json:"ops"`
}

type jsonOpRequest struct {
	Op    string            `json:"op"`
	Rel   string            `json:"rel"`
	Tuple []json.RawMessage `json:"tuple"`
}

// decodeBodyJSON decodes body into v strictly, under the body rules.
func decodeBodyJSON(body []byte, v any) error {
	if len(body) > maxBodyBytes {
		return errors.New("invalid request body: too large")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("invalid request body: data after the request object")
	}
	return nil
}

// decodeValueJSON converts one raw JSON scalar into a database value.
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

func oracleQuery(body []byte) (queryRequest, error) {
	var raw jsonQueryRequest
	if err := decodeBodyJSON(body, &raw); err != nil {
		return queryRequest{}, err
	}
	req := queryRequest{Query: raw.Query, TimeoutMS: raw.TimeoutMS, Limit: raw.Limit, Cursor: raw.Cursor, Debug: raw.Debug}
	if raw.Args != nil {
		req.Args = make([]value.Value, len(raw.Args))
	}
	for i, a := range raw.Args {
		v, err := decodeValueJSON(a)
		if err != nil && req.argErr == nil {
			req.argErr = fmt.Errorf("argument %d: %w", i, err)
		}
		req.Args[i] = v
	}
	return req, nil
}

func oracleIngest(body []byte) ([]live.Op, error) {
	var req jsonIngestRequest
	if err := decodeBodyJSON(body, &req); err != nil {
		return nil, err
	}
	if len(req.Ops) == 0 {
		return nil, fmt.Errorf("empty ops list")
	}
	out := make([]live.Op, len(req.Ops))
	for i, op := range req.Ops {
		tu := make(value.Tuple, len(op.Tuple))
		for j, raw := range op.Tuple {
			v, err := decodeValueJSON(raw)
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

func oraclePrepare(body []byte) (string, error) {
	var req struct {
		Query string `json:"query"`
	}
	err := decodeBodyJSON(body, &req)
	return req.Query, err
}

func decodeQuery(body []byte) (queryRequest, error) {
	var d bodyDecoder
	d.reset(body)
	return d.query()
}

func decodeIngest(body []byte) ([]live.Op, error) {
	var d bodyDecoder
	d.reset(body)
	return d.ingest()
}

func decodePrepare(body []byte) (string, error) {
	var d bodyDecoder
	d.reset(body)
	return d.prepare()
}

// sameError: both nil, both a malformed body (whose wording is free), or
// the same value error word for word.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	const body = "invalid request body: "
	if strings.HasPrefix(want.Error(), body) {
		return strings.HasPrefix(got.Error(), body)
	}
	return got.Error() == want.Error()
}

func sameValues(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkQuery(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := decodeQuery(body)
	want, wantErr := oracleQuery(body)
	if !sameError(gotErr, wantErr) {
		t.Fatalf("%q: error %v, the oracle's is %v", body, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !sameError(got.argErr, want.argErr) || (got.argErr == nil) != (want.argErr == nil) {
		t.Fatalf("%q: argument error %v, the oracle's is %v", body, got.argErr, want.argErr)
	}
	if got.Query != want.Query || got.TimeoutMS != want.TimeoutMS || got.Limit != want.Limit ||
		got.Cursor != want.Cursor || got.Debug != want.Debug || !sameValues(got.Args, want.Args) {
		t.Fatalf("%q: decoded %+v, the oracle gives %+v", body, got, want)
	}
	gotQ, gotErr := decodePrepare(body)
	wantQ, wantErr := oraclePrepare(body)
	if !sameError(gotErr, wantErr) || (wantErr == nil && gotQ != wantQ) {
		t.Fatalf("%q as /prepare: %q (%v), the oracle gives %q (%v)", body, gotQ, gotErr, wantQ, wantErr)
	}
}

func checkIngest(t *testing.T, body []byte) {
	t.Helper()
	got, gotErr := decodeIngest(body)
	want, wantErr := oracleIngest(body)
	if !sameError(gotErr, wantErr) {
		t.Fatalf("%q: error %v, the oracle's is %v", body, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d ops, the oracle gives %d", body, len(got), len(want))
	}
	for i := range got {
		if got[i].Kind != want[i].Kind || got[i].Rel != want[i].Rel || !sameValues(got[i].Tuple, want[i].Tuple) {
			t.Fatalf("%q: op %d is %+v, the oracle gives %+v", body, i, got[i], want[i])
		}
	}
}

// FuzzDecodeQuery holds the /query and /prepare decoding to the oracle:
// the same accept or reject, the same request, each value of the same
// kind, and the same argument error text. The corpus is in
// testdata/fuzz/FuzzDecodeQuery.
func FuzzDecodeQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { checkQuery(t, body) })
}

// FuzzDecodeIngest is FuzzDecodeQuery for /ingest, op and attribute
// error texts included.
func FuzzDecodeIngest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) { checkIngest(t, body) })
}

// TestDecodeValueMatchesJSONDecoder: every literal, as an argument and
// as an attribute, decodes to the oracle's value or fails with its error.
func TestDecodeValueMatchesJSONDecoder(t *testing.T) {
	raws := []string{
		`0`, `7`, `-7`, `-0`, `42`, `999999999999999999`, `-999999999999999999`,
		`""`, `"a0"`, `"plain_id-42"`, `"with space~"`, `"<tag>&"`,
		`1000000000000000000`, `9223372036854775807`, `-9223372036854775808`,
		`9223372036854775808`, `-9223372036854775809`, `123456789012345678901234567890`,
		`1.5`, `-0.0`, `1e3`, `1E-2`, `2.0`,
		`"say \"hi\""`, `"back\\slash"`, `"tab\tnl\n"`, `"é世"`, `"🙂"`, `"del` + "\x7f" + `"`,
		`"\ud83d"`, `"\ude42\ud83d"`, `"\ud83dx"`, `"\ud83dA"`, `"\/\b\f\r"`, `"\x"`, `"\u12"`,
		`"héllo"`, `"日本語"`, `"bad` + "\xff" + `utf8"`, `"` + "\xed\xa0\x80" + `"`,
		`null`, `true`, `false`, `[1,2]`, `[ 1 , [2] ]`, `[]`, `{"a":1}`, `{}`, `{"a":[true,null]}`,
		` 7`, `7 `, ` "x" `, `007`, `-`, `--1`, `+1`, `1-`, `0x10`, `"open`, `open"`, `"`, ``, `"a"b"`, `nul`, `7 8`, `1.`, `.5`, `1e`,
	}
	// Nesting on both sides of encoding/json's depth limit, for both bodies.
	for n := maxDepth - 5; n <= maxDepth-1; n++ {
		raws = append(raws, strings.Repeat("[", n)+strings.Repeat("]", n))
	}
	for _, raw := range raws {
		checkQuery(t, []byte(`{"query":"q","args":[1,`+raw+`]}`))
		checkIngest(t, []byte(`{"ops":[{"op":"insert","rel":"r","tuple":[1,`+raw+`]}]}`))
	}
}

// TestRequestBodyIsOneValue: a body is one JSON value and whitespace,
// within maxBodyBytes; anything after the value, or past the limit, is a
// 400 however the value itself reads.
func TestRequestBodyIsOneValue(t *testing.T) {
	_, _, hs := newTestServer(t, engine.Options{}, Options{})
	const q = `{"query": "select photo_id from in_album where album_id = ?", "args": ["a0"]}`
	large := q + strings.Repeat(" ", maxBodyBytes)
	cases := []struct {
		path, body, err string
		want            int
	}{
		{"/query", q, "", http.StatusOK},
		{"/query", q + " \n\t\r ", "", http.StatusOK},
		{"/query", q + "garbage", "invalid request body", http.StatusBadRequest},
		{"/query", q + q, "invalid request body", http.StatusBadRequest},
		{"/query", large, "invalid request body", http.StatusBadRequest},
		{"/query", `null`, "missing query text", http.StatusBadRequest},
		{"/query", `null x`, "invalid request body", http.StatusBadRequest},
		{"/query", ``, "invalid request body", http.StatusBadRequest},
		{"/ingest", `{"ops": []}` + "]", "invalid request body", http.StatusBadRequest},
		{"/ingest", `null`, "empty ops list", http.StatusBadRequest},
		{"/prepare", `{"query": "select photo_id from in_album where album_id = ?"}{}`, "invalid request body", http.StatusBadRequest},
	}
	for _, c := range cases {
		code, raw := post(t, hs.URL+c.path, c.body)
		if code != c.want || !strings.Contains(string(raw), c.err) {
			t.Errorf("%s %.60q: status %d (%.200s), want %d with %q", c.path, c.body, code, raw, c.want, c.err)
		}
	}
}

// queryBody is a hot_point-shaped /query body with n integer arguments.
func queryBody(n int) []byte {
	b := []byte(`{"query":"select photo_id from in_album where album_id = ?","args":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%d", 1000+i)
	}
	return append(b, "]}"...)
}

// ingestBody is an /ingest batch of n integer-tuple inserts.
func ingestBody(n int) []byte {
	b := []byte(`{"ops":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"op":"insert","rel":"friends","tuple":[%d,%d]}`, i, i+1)
	}
	return append(b, "]}"...)
}

// TestDecodeAllocations: a /query body costs the same allocations
// whatever its argument count, an /ingest batch at most one per op (its
// tuple) plus a constant, and a warm pooled buffer is reused.
func TestDecodeAllocations(t *testing.T) {
	var d bodyDecoder
	queryAllocs := func(body []byte) float64 {
		return testing.AllocsPerRun(100, func() {
			d.reset(body)
			if req, err := d.query(); err != nil || req.argErr != nil {
				t.Fatal(err, req.argErr)
			}
		})
	}
	if one, eight := queryAllocs(queryBody(1)), queryAllocs(queryBody(8)); one != eight {
		t.Errorf("/query allocations: %v with 1 argument, %v with 8", one, eight)
	}
	const perBatch = 4 // the ops slice, the op and relation names, slack
	for _, n := range []int{16, 64} {
		body := ingestBody(n)
		got := testing.AllocsPerRun(50, func() {
			d.reset(body)
			if _, err := d.ingest(); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(n+perBatch) {
			t.Errorf("%d-op /ingest: %v allocations, want at most %d", n, got, n+perBatch)
		}
	}
	if raceEnabled {
		return // the race detector's pool drops a quarter of what is put back
	}
	body := bytes.Repeat([]byte(" "), 16<<10)
	r := httptest.NewRequest(http.MethodPost, "/query", nil)
	var rd bytes.Reader
	rc := io.NopCloser(&rd)
	if got := testing.AllocsPerRun(100, func() {
		rd.Reset(body)
		r.Body = rc
		d, err := readBody(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		d.release()
	}); got > 1 { // the MaxBytesReader
		t.Errorf("reading a 16 KiB body into a warm buffer: %v allocations, want 1", got)
	}
}

// TestDecoderPoolDropsLargeBuffers: a buffer grown past maxPooledBody by a
// bulk body goes to the collector, not back to the pool.
func TestDecoderPoolDropsLargeBuffers(t *testing.T) {
	big := &bodyDecoder{buf: make([]byte, 0, 2*maxPooledBody)}
	big.release()
	for i := 0; i < 8; i++ {
		if decoders.Get() == any(big) {
			t.Fatal("a decoder holding a large buffer went back to the pool")
		}
	}
}

// BenchmarkServe_Decode prints the decoder's cost per body beside the
// encoding/json oracle's, for a hot_point /query body and a 16-op
// /ingest batch.
func BenchmarkServe_Decode(b *testing.B) {
	query, ingest := queryBody(1), ingestBody(16)
	b.Run("query", func(b *testing.B) {
		var d bodyDecoder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.reset(query)
			if _, err := d.query(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("query_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleQuery(query); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ingest", func(b *testing.B) {
		var d bodyDecoder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.reset(ingest)
			if _, err := d.ingest(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ingest_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracleIngest(ingest); err != nil {
				b.Fatal(err)
			}
		}
	})
}
