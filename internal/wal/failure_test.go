package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// be32 is the frame-length reader wal_test.go walks frames with; the
// package itself reads frames with encoding/binary.
var be32 = binary.BigEndian.Uint32

// flakyFile fails the file operations a test arms, the way a full or
// failing disk does: the call returns an error, the process lives on.
type flakyFile struct {
	File
	writeErr, syncErr error
	short             int // bytes a failing Write still puts down
}

func (f *flakyFile) Write(p []byte) (int, error) {
	if f.writeErr == nil {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:min(f.short, len(p))])
	return n, f.writeErr
}

func (f *flakyFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

// TestReturnedIOErrorIsSticky injects a Write error (leaving a partial
// frame) and, separately, a Sync error (leaving a whole, unacknowledged
// frame), then lets the disk recover. The failed Append rewinds the file
// to the acknowledged frames at once, and the log stays refused: every
// later Append and Reset returns the first error until the log is
// reopened — and the reopened log holds exactly the acknowledged records
// (never the frame whose Append failed) and accepts appends again.
func TestReturnedIOErrorIsSticky(t *testing.T) {
	recs := testRecords()
	for _, tc := range []struct {
		name string
		arm  func(f *flakyFile, err error)
	}{
		{name: "write", arm: func(f *flakyFile, err error) { f.writeErr, f.short = err, 11 }},
		{name: "sync", arm: func(f *flakyFile, err error) { f.syncErr = err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			w, _, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			var ff *flakyFile
			w.WrapFile(func(f File) File { ff = &flakyFile{File: f}; return ff })
			if err := w.Append(recs[0]); err != nil {
				t.Fatal(err)
			}
			diskFull := errors.New("no space left on device")
			tc.arm(ff, diskFull)
			acked := w.Stats().SizeBytes
			first := w.Append(recs[1])
			if !errors.Is(first, diskFull) {
				t.Fatalf("Append = %v, want the injected error", first)
			}
			if fi, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if fi.Size() != acked {
				t.Fatalf("after the failed Append the file holds %d bytes, want the %d acknowledged", fi.Size(), acked)
			}
			ff.writeErr, ff.syncErr = nil, nil // the disk is fine again; the log is not
			if err := w.Append(recs[2]); err != first {
				t.Fatalf("Append after a failed one = %v, want the same error %v", err, first)
			}
			if err := w.Reset(); err != first {
				t.Fatalf("Reset after a failed append = %v, want the same error %v", err, first)
			}
			if st := w.Stats(); st.Appends != 1 {
				t.Fatalf("%d appends counted, want the one acknowledged", st.Appends)
			}
			w.Close()

			w2, got, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if want := recs[:1]; !reflect.DeepEqual(got, want) {
				t.Fatalf("reopen recovered %+v, want the acknowledged prefix %+v", got, want)
			}
			if err := w2.Append(recs[2]); err != nil {
				t.Fatalf("Append on the reopened log: %v", err)
			}
		})
	}
}
