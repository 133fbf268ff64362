package serve

import (
	"encoding/json"
	"math"
	"testing"

	"bcq/internal/value"
)

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
