package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bcq/internal/value"
)

// fileSize is the size of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// crash closes the log's file without trimming its fill, the way a
// process that dies leaves it.
func crash(w *WAL) { w.f.Close() }

// frameLen is the length of rec's frame on the log.
func frameLen(rec Record) int { return len(appendFrame(nil, rec)) }

// TestAppendsInsideTheFile: the first append extends the file by its
// frame and a fill chunk; the appends that fit after it overwrite fill
// and leave the file's size as it was. Close trims the fill.
func TestAppendsInsideTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords()
	if err := w.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	extended := fileSize(t, path)
	if want := int64(headerSize + frameLen(recs[0]) + fillChunk); extended != want {
		t.Fatalf("after the first append the file holds %d bytes, want header, frame and fill: %d", extended, want)
	}
	for _, rec := range recs[1:] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if got := fileSize(t, path); got != extended {
			t.Fatalf("an append inside the file changed its size: %d -> %d", extended, got)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fileSize(t, path), w.Stats().SizeBytes; got != want {
		t.Fatalf("a closed log holds %d bytes, want its %d logical bytes", got, want)
	}
}

// TestAppendThatOverrunsTheFillExtends: a frame longer than the fill
// left extends the file past its own end by a fresh chunk, from where
// the log ended; so does a frame longer than the staging block.
func TestAppendThatOverrunsTheFillExtends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	big := func(epoch uint64, n int) Record {
		return Record{Kind: RecBatch, Epoch: epoch, Ops: []Op{{Kind: OpInsert, Rel: "r", Tuple: value.Tuple{value.Str(string(bytes.Repeat([]byte{'x'}, n)))}}}}
	}
	// The halves fit two to a chunk but not three; the fourth leaves less
	// fill than the fifth, staged, frame needs.
	recs := []Record{big(1, fillChunk/2), big(2, fillChunk/2), big(3, fillChunk/2), big(4, fillChunk-200), big(5, 300), big(6, 10)}
	for i, rec := range recs {
		logical, size := w.Stats().SizeBytes, fileSize(t, path)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		want := logical + int64(frameLen(rec)) + fillChunk
		if i%2 == 1 {
			want = size // fits in the fill the previous append left
		}
		if got := fileSize(t, path); got != want {
			t.Fatalf("append %d: file holds %d bytes, want %d", i, got, want)
		}
	}
	w.Close()
	w2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(got, recs) || w2.Stats().TruncatedRecords != 0 {
		t.Fatalf("reopen replayed %d records and cut %d, want %d and 0", len(got), w2.Stats().TruncatedRecords, len(recs))
	}
}

// TestClosedLogIsHeaderAndFrames: a closed log is byte for byte its
// header and the frames of its records, with no fill, after a Reset and
// after a reopen that kept a crashed log's fill.
func TestClosedLogIsHeaderAndFrames(t *testing.T) {
	recs := testRecords()
	want := []byte(fileMagic)
	for _, rec := range recs {
		want = appendFrame(want, rec)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	writeLog(t, path, recs)
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("closed log = %x (%v), want %x", got, err, want)
	}

	w, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:2] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	crash(w)
	w, _, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[2:] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("closed log after a reset and a crash = %x (%v), want %x", got, err, want)
	}
}

// TestCrashedLogTail reopens a log that crashed (no Close) with its fill
// tail as the appends left it, and with that tail overwritten by zeros
// (the hole an OS crash can leave) or by garbage. Fill ends the log
// cleanly and is kept; zeros and garbage are a torn tail, cut and counted
// once.
func TestCrashedLogTail(t *testing.T) {
	recs := testRecords()
	for _, tc := range []struct {
		name string
		tail func(n int) []byte
		torn bool
	}{
		{"fill", nil, false},
		{"zeros", func(n int) []byte { return make([]byte, n) }, true},
		{"garbage", func(n int) []byte { return bytes.Repeat([]byte("\x00\x00\x00\x09garbage!"), n/12+1)[:n] }, true},
		{"fill then zeros", func(n int) []byte { return append(bytes.Repeat([]byte{fillByte}, n-7), make([]byte, 7)...) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, _, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := w.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			logical := w.Stats().SizeBytes
			crash(w)
			size := fileSize(t, path)
			if tc.tail != nil {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				copy(data[logical:], tc.tail(int(size-logical)))
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			w2, got, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if !reflect.DeepEqual(got, recs) {
				t.Fatalf("replayed %d records, want all %d", len(got), len(recs))
			}
			wantCut, wantSize := int64(0), size
			if tc.torn {
				wantCut, wantSize = 1, logical
			}
			if st := w2.Stats(); st.TruncatedRecords != wantCut || st.SizeBytes != logical {
				t.Fatalf("reopen cut %d frames and ends at %d, want %d and %d", st.TruncatedRecords, st.SizeBytes, wantCut, logical)
			}
			if got := fileSize(t, path); got != wantSize {
				t.Fatalf("reopened file holds %d bytes, want %d", got, wantSize)
			}
		})
	}
}

// TestKillPointsInTheFill tears the Write of an append that extends the
// log (the first one of a fresh log, and the first one after a Reset) at
// lengths inside its frame and inside the fill behind it. Recovery holds
// the acknowledged records and the torn one whole or not at all: a crash
// that put the whole frame down replays it and cuts nothing, and one
// that tore the frame cuts it, once.
func TestKillPointsInTheFill(t *testing.T) {
	recs := testRecords()
	dying := recs[3]
	frame := frameLen(dying)
	for _, reset := range []bool{false, true} {
		for _, torn := range []int{0, 1, 3, 4, 9, frame - 1, frame, frame + 1, frame + 3, frame + 4096, frame + fillChunk - 1, frame + fillChunk} {
			t.Run(fmt.Sprintf("reset=%v/torn=%d", reset, torn), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "wal.log")
				w, _, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				var acked []Record
				if reset {
					for _, rec := range recs[:3] {
						if err := w.Append(rec); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Reset(); err != nil {
						t.Fatal(err)
					}
				}
				w.SetFailPoint(1, torn)
				if err := w.Append(dying); !errors.Is(err, ErrInjectedCrash) {
					t.Fatalf("Append = %v, want the injected crash", err)
				}
				crash(w)
				if got, want := fileSize(t, path), int64(headerSize+torn); got != want {
					t.Fatalf("the torn extension left %d bytes, want %d", got, want)
				}

				w2, got, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer w2.Close()
				wantCut := int64(0)
				if torn >= frame {
					acked = append(acked, dying)
				} else if torn > 0 {
					wantCut = 1
				}
				if !reflect.DeepEqual(got, acked) || w2.Stats().TruncatedRecords != wantCut {
					t.Fatalf("recovered %d records and cut %d, want %d and %d", len(got), w2.Stats().TruncatedRecords, len(acked), wantCut)
				}
				next := recs[4]
				size := fileSize(t, path)
				if err := w2.Append(next); err != nil {
					t.Fatal(err)
				}
				if torn-frame >= frameLen(next) && fileSize(t, path) != size {
					t.Fatalf("an append into the kept fill changed the file's size")
				}
				w2.Close()
				w3, got, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer w3.Close()
				if want := append(acked, next); !reflect.DeepEqual(got, want) {
					t.Fatalf("after one more append the log replays %d records, want %d", len(got), len(want))
				}
			})
		}
	}
}

// TestLogsExtendAtOnce: logs that extend at the same time share the
// staging block one at a time, and each file holds its own frames and
// fill. The frames are staged ones (under stagedFrame), long enough that
// each log extends several times.
func TestLogsExtendAtOnce(t *testing.T) {
	const logs, appends = 4, 60
	dir := t.TempDir()
	want := make([][]Record, logs)
	errs := make([]error, logs)
	var wg sync.WaitGroup
	for l := range logs {
		for i := range appends {
			v := value.Str(string(bytes.Repeat([]byte{byte('a' + l)}, stagedFrame/2+i)))
			want[l] = append(want[l], Record{Kind: RecBatch, Epoch: uint64(i), Ops: []Op{{Kind: OpInsert, Rel: "r", Tuple: value.Tuple{v}}}})
		}
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			w, _, err := Open(filepath.Join(dir, fmt.Sprintf("%d.log", l)))
			if err != nil {
				errs[l] = err
				return
			}
			for _, rec := range want[l] {
				if err = w.Append(rec); err != nil {
					break
				}
			}
			crash(w)
			errs[l] = err
		}(l)
	}
	wg.Wait()
	for l := range logs {
		if errs[l] != nil {
			t.Fatal(errs[l])
		}
		w, got, err := Open(filepath.Join(dir, fmt.Sprintf("%d.log", l)))
		if err != nil {
			t.Fatal(err)
		}
		st := w.Stats()
		w.Close()
		if !reflect.DeepEqual(got, want[l]) || st.TruncatedRecords != 0 {
			t.Fatalf("log %d replays %d records and cuts %d, want its %d and 0", l, len(got), st.TruncatedRecords, len(want[l]))
		}
	}
}
