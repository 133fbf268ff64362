package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bcq/internal/value"
)

func isPrefix(got, want []Record) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

func testRecords() []Record {
	return []Record{
		{Kind: RecBatch, Epoch: 1, Ops: []Op{
			{Kind: OpInsert, Rel: "person", Tuple: value.Tuple{value.Int(1), value.Str("ada")}},
			{Kind: OpDelete, Rel: "person", Tuple: value.Tuple{value.Int(2), value.Str("bob")}},
		}},
		{Kind: RecExtension, Epoch: 2, Rel: "person", X: []string{"id"}, Y: []string{"name"}, N: 4},
		{Kind: RecBatch, Epoch: 3, Ops: []Op{
			{Kind: OpInsert, Rel: "edge", Tuple: value.Tuple{value.Int(7), value.Null}},
		}},
		{Kind: RecShardBatch, Subs: []Sub{
			{Shard: 0, Epoch: 4, Ops: []Op{{Kind: OpInsert, Rel: "person", Tuple: value.Tuple{value.Int(3), value.Str("cy")}}}},
			{Shard: 2, Epoch: 9, Ops: []Op{
				{Kind: OpDelete, Rel: "edge", Tuple: value.Tuple{value.Int(7), value.Null}},
				{Kind: OpInsert, Rel: "edge", Tuple: value.Tuple{value.Int(8), value.Int(9)}},
			}},
		}},
		{Kind: RecShardExtension, Rel: "edge", X: []string{"src"}, Y: []string{"dst"}, N: 16,
			Subs: []Sub{{Shard: 0, Epoch: 5}, {Shard: 1, Epoch: 2}, {Shard: 2, Epoch: 10}}},
	}
}

func writeLog(t *testing.T, path string, recs []Record) {
	t.Helper()
	w, got, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("fresh log replayed %d records", len(got))
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	recs := testRecords()
	writeLog(t, path, recs)

	w, got, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, recs)
	}
	st := w.Stats()
	if st.ReplayedRecords != int64(len(recs)) || st.TruncatedRecords != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !w.HasRecords() {
		t.Fatalf("HasRecords = false on non-empty log")
	}
}

// TestCut: cutting a reopened log at every record keeps exactly the
// records before it, on disk, and the next append lands right behind
// them; a cut after an append is refused.
func TestCut(t *testing.T) {
	recs := testRecords()
	for keep := 0; keep <= len(recs); keep++ {
		path := filepath.Join(t.TempDir(), "wal.log")
		writeLog(t, path, recs)
		w, _, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Cut(keep); err != nil {
			t.Fatalf("Cut(%d): %v", keep, err)
		}
		if err := w.Append(recs[0]); err != nil {
			t.Fatal(err)
		}
		if err := w.Cut(1); err == nil {
			t.Fatal("a cut after an append was taken")
		}
		w.Close()
		w, got, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		want := append(append([]Record{}, recs[:keep]...), recs[0])
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Cut(%d): the log replays %d records, want %d", keep, len(got), len(want))
		}
	}
}

// TestTornTailEveryOffset truncates the log at every possible byte
// length and asserts recovery always yields a clean prefix of the
// original records, never an error, never garbage.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "wal.log")
	recs := testRecords()
	writeLog(t, full, recs)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: cuts landing exactly on one leave no torn tail.
	boundaries := map[int]bool{headerSize: true}
	for off := headerSize; off+frameHeader <= len(data); {
		off += frameHeader + int(be32(data[off:off+4]))
		boundaries[off] = true
	}

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := Open(path)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		if len(got) > len(recs) {
			t.Fatalf("cut=%d: replayed %d > %d records", cut, len(got), len(recs))
		}
		if !isPrefix(got, recs) {
			t.Fatalf("cut=%d: replay is not a prefix", cut)
		}
		st := w.Stats()
		if cut > headerSize && !boundaries[cut] && st.TruncatedRecords == 0 {
			t.Fatalf("cut=%d: torn tail not counted", cut)
		}
		// The truncated file must append cleanly.
		if err := w.Append(Record{Kind: RecBatch, Epoch: 99, Ops: []Op{{Kind: OpInsert, Rel: "r", Tuple: value.Tuple{value.Int(1)}}}}); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		w.Close()
	}
}

// TestBitFlipEveryByte flips each byte of the log body in turn; recovery
// must stop at or before the damaged record and never error.
func TestBitFlipEveryByte(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "wal.log")
	recs := testRecords()
	writeLog(t, full, recs)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	for i := headerSize; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		path := filepath.Join(dir, "flip.log")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := Open(path)
		if err != nil {
			t.Fatalf("flip@%d: Open: %v", i, err)
		}
		if !isPrefix(got, recs) {
			t.Fatalf("flip@%d: replay is not a prefix of the original records", i)
		}
		if len(got) == len(recs) {
			t.Fatalf("flip@%d: all records survived a body bit flip", i)
		}
		if w.Stats().TruncatedRecords == 0 {
			t.Fatalf("flip@%d: corruption not counted", i)
		}
		w.Close()
	}
}

func TestReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	writeLog(t, path, testRecords())
	w, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no records replayed")
	}
	if err := w.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if w.HasRecords() {
		t.Fatal("HasRecords after Reset")
	}
	post := Record{Kind: RecBatch, Epoch: 5, Ops: []Op{{Kind: OpInsert, Rel: "r", Tuple: value.Tuple{value.Str("x")}}}}
	if err := w.Append(post); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, got2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got2) != 1 || !reflect.DeepEqual(got2[0], post) {
		t.Fatalf("after reset replay = %+v", got2)
	}
}

func TestFailPoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first := Record{Kind: RecBatch, Epoch: 1, Ops: []Op{{Kind: OpInsert, Rel: "r", Tuple: value.Tuple{value.Int(1)}}}}
	if err := w.Append(first); err != nil {
		t.Fatal(err)
	}
	w.SetFailPoint(1, 5)
	err = w.Append(Record{Kind: RecBatch, Epoch: 2, Ops: []Op{{Kind: OpInsert, Rel: "r", Tuple: value.Tuple{value.Int(2)}}}})
	if !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("Append with fail point = %v, want ErrInjectedCrash", err)
	}
	w.Close()

	w2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 1 || !reflect.DeepEqual(got[0], first) {
		t.Fatalf("recovered %d records, want the committed prefix only", len(got))
	}
	if w2.Stats().TruncatedRecords == 0 {
		t.Fatal("torn frame not counted")
	}
}

func TestEmptyAndTornHeader(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, 1, headerSize - 1} {
		path := filepath.Join(dir, "h.log")
		if err := os.WriteFile(path, []byte(fileMagic[:n]), 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := Open(path)
		if err != nil {
			t.Fatalf("header len %d: %v", n, err)
		}
		if len(got) != 0 {
			t.Fatalf("header len %d: replayed %d records", n, len(got))
		}
		w.Close()
	}
	// A non-WAL file must be rejected, not silently overwritten.
	path := filepath.Join(dir, "not.log")
	if err := os.WriteFile(path, []byte("definitely not a wal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("Open accepted a non-WAL file")
	}
}
