package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bcq/internal/value"
)

// FuzzDecodeFrame holds the frame decoder to what recovery needs from it,
// whatever a crash or the disk left in the log: it never panics and never
// sizes a slice by a count the bytes cannot hold; a frame it accepts is
// exactly the frame Append writes for the record it decoded; and that
// frame with any one bit flipped is refused. The seeds are the frames
// TestBitFlipEveryByte flips, committed under testdata/fuzz/FuzzDecodeFrame
// with the regression seeds:
//
//	go test -run '^$' -fuzz FuzzDecodeFrame -fuzztime 20s ./internal/wal/
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, bit uint32) {
		_, _ = decodeRecord(data)
		rec, n, err := decodeFrame(data)
		if err != nil {
			return
		}
		frame := data[:n]
		if again := appendFrame(nil, rec); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame %x, but its record frames as %x", frame, again)
		}
		flipped := bytes.Clone(frame)
		at := int(bit/8) % n
		flipped[at] ^= 1 << (bit % 8)
		if _, _, err := decodeFrame(flipped); err == nil {
			t.Fatalf("accepted frame %x with bit %d of byte %d flipped", frame, bit%8, at)
		}
	})
}

// FuzzOpenTail holds Open to what recovery needs from it whatever lies
// past a log's last frame: the first n of testRecords' frames, then an
// arbitrary suffix (fill, a torn frame, zeros, garbage, more frames).
// Open never panics; it replays every one of those frames, and after
// them only records the suffix holds whole; a suffix of fill alone is
// the log's clean end, which Open keeps as it is, cutting nothing, and
// an append that fits in it leaves the file's size unchanged. Whatever
// Open kept, one more append, a Close and a reopen replay what Open did
// and that record, and nothing else. The seeds are committed under
// testdata/fuzz/FuzzOpenTail:
//
//	go test -run '^$' -fuzz '^FuzzOpenTail$' -fuzztime 20s ./internal/wal/
func FuzzOpenTail(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, suffix []byte) {
		recs := testRecords()
		recs = recs[:int(n)%(len(recs)+1)]
		data := []byte(fileMagic)
		for _, rec := range recs {
			data = appendFrame(data, rec)
		}
		logical := len(data)
		data = append(data, suffix...)
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer w.Close()
		if !isPrefix(recs, got) {
			t.Fatalf("replayed %d records, not the %d frames before the suffix first", len(got), len(recs))
		}
		next := Record{Kind: RecBatch, Epoch: 99, Ops: []Op{{Kind: OpInsert, Rel: "r", Tuple: value.Tuple{value.Int(1)}}}}
		if fill := bytes.Count(suffix, []byte{fillByte}) == len(suffix); fill {
			if st := w.Stats(); len(got) != len(recs) || st.TruncatedRecords != 0 || st.SizeBytes != int64(logical) {
				t.Fatalf("a fill suffix: replayed %d of %d records, cut %d, log ends at %d, want %d",
					len(got), len(recs), st.TruncatedRecords, st.SizeBytes, logical)
			}
			if size := fileSize(t, path); size != int64(len(data)) {
				t.Fatalf("Open cut a fill suffix: %d of %d bytes left", size, len(data))
			}
			if err := w.Append(next); err != nil {
				t.Fatal(err)
			}
			if size := fileSize(t, path); len(suffix) >= frameLen(next) && size != int64(len(data)) {
				t.Fatalf("an append into %d bytes of fill moved the file's size from %d to %d", len(suffix), len(data), size)
			}
		} else if err := w.Append(next); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w2, again, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		if want := append(got, next); !reflect.DeepEqual(again, want) || w2.Stats().TruncatedRecords != 0 {
			t.Fatalf("after an append and a Close the log replays %d records and cuts %d, want %d and 0",
				len(again), w2.Stats().TruncatedRecords, len(want))
		}
	})
}
