package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"bcq/internal/exec"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// epochText is an epoch key given as text: what the encoders' reference
// tests render in place of a view.
type epochText string

func (e epochText) AppendEpochKey(dst []byte) []byte { return append(dst, e...) }

// TestAppendRowMatchesJSONMarshal: the page encoder must produce exactly
// the bytes of the encoder it replaced — json.Marshal over the boxed
// columns — so paged and buffered answers stay the same document.
func TestAppendRowMatchesJSONMarshal(t *testing.T) {
	rows := []value.Tuple{
		{},
		{value.Int(0)},
		{value.Int(-7), value.Int(math.MaxInt64), value.Int(math.MinInt64)},
		{value.Str(""), value.Str("plain_id-42"), value.Str("with space~")},
		{value.Str(`say "hi"`), value.Str(`back\slash`), value.Str("tab\tnewline\n\x00\x1f")},
		{value.Str("<script>&amp;</script>"), value.Str("del\x7f")},
		{value.Str("héllo wörld"), value.Str("日本語"), value.Str("emoji 🙂")},
		{value.Str("line sep "), value.Str("bad\xff\xfeutf8")},
		{value.Null, value.Int(3), value.Null, value.Str("x")},
	}
	buf := []byte("reused,")
	for _, tu := range rows {
		boxed := make([]any, len(tu))
		for j, v := range tu {
			boxed[j] = encodeValue(v)
		}
		want, err := json.Marshal(boxed)
		if err != nil {
			t.Fatal(err)
		}
		buf = appendRow(buf[:0], tu)
		if string(buf) != string(want) {
			t.Errorf("appendRow(%v) = %s, json.Marshal gives %s", tu, buf, want)
		}
	}
}

// fmtFraming is writePage's former framing, kept as the reference the page
// appenders are held to.
func fmtFraming(cols []string, res *exec.Result, epoch, next string, complete bool, traceID, errMsg string) string {
	if cols == nil {
		cols = []string{}
	}
	colsJSON, _ := json.Marshal(cols)
	out := fmt.Sprintf(`{"result":{"cols":%s,"tuples":[`, colsJSON)
	trailer, _ := json.Marshal(statsPayload{
		IndexLookups:  res.Stats.IndexLookups,
		TuplesFetched: res.Stats.TuplesFetched,
		TuplesScanned: res.Stats.TuplesScanned,
	})
	out += fmt.Sprintf(`],"stats":%s,"dq_size":%d},"cached":false,"epoch":%s,"next_cursor":%s,"complete":%v`,
		trailer, res.DQSize, jsonString(epoch), jsonString(next), complete)
	if traceID != "" {
		out += fmt.Sprintf(`,"trace_id":%s`, jsonString(traceID))
	}
	if errMsg != "" {
		out += fmt.Sprintf(`,"error":%s`, jsonString(errMsg))
	}
	return out + "}\n"
}

// TestPageFramingMatchesEncodingJSON holds a page's header and trailer —
// plain, traced, failed and timed out — to the json.Marshal and fmt
// rendering the appenders replaced, byte for byte.
func TestPageFramingMatchesEncodingJSON(t *testing.T) {
	big := &exec.Result{Stats: storage.Stats{IndexLookups: math.MaxInt64, TuplesFetched: 1009, TuplesScanned: 3}, DQSize: 984}
	cases := []struct {
		name                         string
		cols                         []string
		res                          *exec.Result
		epoch, next, traceID, errMsg string
		complete                     bool
	}{
		{name: "boolean query, last page", res: &exec.Result{}, epoch: "live:0", complete: true},
		{name: "first page of a scan", cols: []string{"photo_id"}, res: big, epoch: "live:41", next: "9f86d081884c7d659a2feaa0c55ad015"},
		{name: "several columns, sharded epoch", cols: []string{"a", "b_2", "c"}, res: big, epoch: "shards:3,17,4", complete: true},
		{name: "column names json escapes", cols: []string{`say "hi"`, "<tag>&", "naïve", "tab\there"}, res: big, epoch: "live:1", complete: true},
		{name: "traced", cols: []string{"x"}, res: big, epoch: "live:2", next: "00ff", traceID: "4bf92f3577b34da6"},
		{name: "stream error", cols: []string{"x"}, res: big, epoch: "live:2", errMsg: `live: no index maintained for constraint r(k -> "v", 4)`},
		{name: "deadline mid-page", cols: []string{"x"}, res: big, epoch: "live:2", next: "ab", traceID: "t-1", errMsg: "deadline exceeded mid-page; resume with next_cursor"},
	}
	for _, c := range cases {
		got := appendPageTrailer(appendPageHeader([]byte("kept"), c.cols), c.res, epochText(c.epoch), c.next, c.complete, c.traceID, c.errMsg)
		if want := "kept" + fmtFraming(c.cols, c.res, c.epoch, c.next, c.complete, c.traceID, c.errMsg); string(got) != want {
			t.Errorf("%s:\n got  %s\n want %s", c.name, got, want)
		}
		var doc map[string]any
		if err := json.Unmarshal(got[len("kept"):], &doc); err != nil {
			t.Errorf("%s: the framing around an empty page is not a JSON document: %v", c.name, err)
		}
	}
}

// The reflecting encoder /query bodies were built with before appendResult,
// kept as the reference the appenders are held to.

// encodeValue renders a database value as its JSON scalar.
func encodeValue(v value.Value) any {
	switch v.Kind() {
	case value.KindInt:
		return v.AsInt()
	case value.KindString:
		return v.AsString()
	default:
		return nil
	}
}

// resultPayload is the canonical JSON rendering of one answer.
type resultPayload struct {
	Cols   []string     `json:"cols"`
	Tuples [][]any      `json:"tuples"`
	Stats  statsPayload `json:"stats"`
	DQSize int64        `json:"dq_size"`
}

type statsPayload struct {
	IndexLookups  int64 `json:"index_lookups"`
	TuplesFetched int64 `json:"tuples_fetched"`
	TuplesScanned int64 `json:"tuples_scanned"`
}

// marshalResult renders an execution result canonically.
func marshalResult(res *exec.Result) ([]byte, error) {
	p := resultPayload{
		Cols:   res.Cols,
		Tuples: make([][]any, len(res.Tuples)),
		Stats: statsPayload{
			IndexLookups:  res.Stats.IndexLookups,
			TuplesFetched: res.Stats.TuplesFetched,
			TuplesScanned: res.Stats.TuplesScanned,
		},
		DQSize: res.DQSize,
	}
	if p.Cols == nil {
		p.Cols = []string{}
	}
	for i, tu := range res.Tuples {
		row := make([]any, len(tu))
		for j, v := range tu {
			row[j] = encodeValue(v)
		}
		p.Tuples[i] = row
	}
	return json.Marshal(p)
}

// TestAppendResultMatchesMarshalResult: a buffered /query body is the
// reflecting encoder's document, byte for byte — no tuples, no columns, a
// row wider than the first (the size estimate is only a hint), escapes.
func TestAppendResultMatchesMarshalResult(t *testing.T) {
	stats := storage.Stats{IndexLookups: 12, TuplesFetched: math.MaxInt64, TuplesScanned: 1}
	many := make([]value.Tuple, 300)
	for i := range many {
		many[i] = value.Tuple{value.Int(int64(i)), value.Str(fmt.Sprintf("user-%d", i*i*i))}
	}
	for _, res := range []*exec.Result{
		{},
		{Cols: []string{"x"}, Stats: stats, DQSize: 7},
		{Cols: []string{"a", `q"uote`}, Tuples: []value.Tuple{{value.Int(1), value.Null}}, Stats: stats, DQSize: 1},
		{Cols: []string{"id", "name"}, Tuples: many, Stats: stats, DQSize: 300},
		{Cols: []string{"s"}, Tuples: []value.Tuple{{value.Str("a")}, {value.Str("<long> & \"escaped\" naïve string that outgrows the first row")}}, DQSize: 2},
		{Tuples: []value.Tuple{{}}, DQSize: 1},
	} {
		want, err := marshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendResult(res); string(got) != string(want) {
			t.Errorf("appendResult = %s\n marshalResult = %s", got, want)
		}
	}
}

// The response encoders are fuzzed against the encoding/json renderings
// they replaced — the references above and queryEnvelope. A disagreement
// lands in testdata/fuzz/<target>/ as a regression seed:
//
//	go test -run '^$' -fuzz FuzzAppendEnvelope -fuzztime 20s ./internal/serve/

// fuzzTuple draws a tuple from fuzz input: kinds>>6 + 1 columns, each an
// integer, one of two strings or null by its two bits of kinds.
func fuzzTuple(kinds uint8, a, b string, n int64) value.Tuple {
	tu := make(value.Tuple, int(kinds>>6)+1)
	for j := range tu {
		switch kinds >> (2 * j) & 3 {
		case 0:
			tu[j] = value.Int(n + int64(j))
		case 1:
			tu[j] = value.Str(a)
		case 2:
			tu[j] = value.Str(b)
		default:
			tu[j] = value.Null
		}
	}
	return tu
}

// fuzzResult draws an execution result: comma-separated columns (none for
// an empty text) and rows%8 tuples, statistics from the integers.
func fuzzResult(cols string, kinds, rows uint8, a, b string, n int64) *exec.Result {
	res := &exec.Result{
		Stats:  storage.Stats{IndexLookups: n, TuplesFetched: n >> 3, TuplesScanned: int64(rows)},
		DQSize: n >> 7,
	}
	if cols != "" {
		res.Cols = strings.Split(cols, ",")
	}
	for i := 0; i < int(rows%8); i++ {
		res.Tuples = append(res.Tuples, fuzzTuple(kinds+uint8(i), a, b, n+int64(i)))
	}
	return res
}

func FuzzAppendJSONString(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		want, _ := json.Marshal(s)
		if got := appendJSONString([]byte("kept"), s); string(got) != "kept"+string(want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal gives %s", s, got[4:], want)
		}
	})
}

func FuzzAppendRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, kinds uint8, a, b string, n int64) {
		tu := fuzzTuple(kinds, a, b, n)
		boxed := make([]any, len(tu))
		for j, v := range tu {
			boxed[j] = encodeValue(v)
		}
		want, _ := json.Marshal(boxed)
		if got := appendRow([]byte("kept,"), tu); string(got) != "kept,"+string(want) {
			t.Fatalf("appendRow(%v) = %s, json.Marshal gives %s", tu, got[5:], want)
		}
	})
}

func FuzzAppendResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, cols string, kinds, rows uint8, a, b string, n int64) {
		res := fuzzResult(cols, kinds, rows, a, b, n)
		want, err := marshalResult(res)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendResult(res); string(got) != string(want) {
			t.Fatalf("appendResult = %s\n marshalResult = %s", got, want)
		}
	})
}

func FuzzAppendEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, cols string, kinds, rows uint8, a string, n int64, cached bool, epoch, traceID, explain string, debug uint8) {
		result := appendResult(fuzzResult(cols, kinds, rows, a, explain, n))
		var dbg *debugPayload
		switch debug % 3 {
		case 1:
			dbg = &debugPayload{Explain: explain}
		case 2:
			dbg = &debugPayload{Explain: explain, Spans: json.RawMessage(fmt.Sprintf(`{"trace_id":%s,"n":%d}`, jsonString(traceID), n))}
		}
		var want bytes.Buffer
		env := queryEnvelope{Result: result, Cached: cached, Epoch: epoch, TraceID: traceID, Debug: dbg}
		if err := json.NewEncoder(&want).Encode(env); err != nil {
			t.Fatal(err)
		}
		if got := appendEnvelope([]byte("kept"), result, cached, epochText(epoch), traceID, dbg); string(got) != "kept"+want.String() {
			t.Fatalf("appendEnvelope:\n got %s\nwant %s", got[4:], want.Bytes())
		}
	})
}

func FuzzAppendPageFraming(f *testing.F) {
	f.Fuzz(func(t *testing.T, cols string, n int64, epoch, next string, complete bool, traceID, errMsg string) {
		res := fuzzResult("", 0, 0, "", "", n)
		var colList []string
		if cols != "" {
			colList = strings.Split(cols, ",")
		}
		got := appendPageTrailer(appendPageHeader([]byte("kept"), colList), res, epochText(epoch), next, complete, traceID, errMsg)
		if want := "kept" + fmtFraming(colList, res, epoch, next, complete, traceID, errMsg); string(got) != want {
			t.Fatalf("page framing:\n got  %s\n want %s", got, want)
		}
	})
}
