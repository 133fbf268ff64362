// Package wal implements the write-ahead log that makes live ingestion
// durable. Every admitted batch (and every runtime access-schema
// extension) is appended as one length-prefixed, CRC-framed record and
// fsynced before the store publishes the epoch that contains it — so a
// record's presence in the log is exactly the commit point, and replaying
// the log through the normal admission path reconstructs the committed
// prefix byte-for-byte. The one owner of a log is a durable sharded
// store (P = 1 being the single store): one log for all its shards, each
// record carrying every shard's part of one batch (or one extension), so
// a cross-shard batch is one frame and one fsync, and recovery holds all
// of it or none of it.
//
// File layout:
//
//	"BCQWAL1\n"                                  8-byte file magic
//	repeated records:
//	  u32 payload length | u32 CRC-32C(payload) | payload
//	while the log is open, a fill tail: 0xFF bytes up to the file's end
//
// An append that fits in the file overwrites fill, so its fsync commits
// data and no change of the file's size. One that does not fit writes its
// frame and a fresh fillChunk of fill in the same Write. No frame begins
// with 0xFF (its first byte is the high byte of a length of at most
// 2^30), so a torn frame is never taken for fill. Close trims the fill: a
// closed log is exactly its header and frames. Reset, Cut and the rewind
// of a failed append truncate the file, fill and all; the next append
// extends it again.
//
// Open replays the log and stops where the rest of the file is fill, or
// at the first frame that is torn (short) or fails its checksum. A fill
// tail is kept for the next appends; anything else after the last valid
// record (a torn frame, or the zeros of a hole an OS crash left) is
// counted and truncated away, which is the only correct reading of a
// tail written by a crashed process. Records carry the epoch their commit
// published (per shard, on a sharded store's log), so replay can skip
// records already folded into a checkpoint segment and detect continuity
// gaps (a lost checkpoint) instead of replaying stale records onto the
// wrong base.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"bcq/internal/value"
)

// OpKind enumerates write operations. It and Op are also the live store's
// op types (live.Op, live.OpKind are aliases), so a batch is logged and
// replayed without conversion.
type OpKind uint8

const (
	// OpInsert adds one occurrence of a tuple (bag semantics).
	OpInsert OpKind = iota
	// OpDelete removes one live occurrence of an exactly-equal tuple.
	OpDelete
)

// String names the kind for diagnostics.
func (k OpKind) String() string {
	if k == OpInsert {
		return "insert"
	}
	return "delete"
}

// Op is one write operation of a batch. A log record holds only batches
// that committed whole, so replay through the admission path is
// deterministic and never re-rejects.
type Op struct {
	Kind  OpKind
	Rel   string
	Tuple value.Tuple
}

// RecordKind tags the record payloads.
type RecordKind uint8

const (
	// RecBatch is an admitted Apply batch of a single live store, and
	// RecExtension a runtime access-schema extension of one. No store
	// writes them any more: a durable store is a sharded one, which logs
	// RecShardBatch and RecShardExtension. They stay, with their codec,
	// because Open of a version-1 sharded directory migrates the shards'
	// own logs, which hold them (a record of shard s at epoch e replays as
	// the sub-record {s, e}), and because a scratch log that prices one
	// batch's append without a store writes RecBatch.
	RecBatch     RecordKind = 1
	RecExtension RecordKind = 2
	// RecShardBatch is one batch of a sharded store: the sub-batch each
	// shard applied (Subs, with their ops).
	RecShardBatch RecordKind = 3
	// RecShardExtension is one extension of a sharded store: the
	// constraint, and the shards that published it (Subs, without ops).
	RecShardExtension RecordKind = 4
)

// Record is one framed log entry. Epoch is the snapshot epoch the commit
// published — the checkpoint/replay bookkeeping keys off it. A sharded
// store's records carry their epochs per shard, in Subs, and leave Epoch
// zero.
type Record struct {
	Kind  RecordKind
	Epoch uint64

	// RecBatch payload.
	Ops []Op

	// RecExtension and RecShardExtension payload: the constraint
	// rel(X -> Y, N) in the normalized form schema.NewAccessConstraint
	// accepts.
	Rel  string
	X, Y []string
	N    int64

	// RecShardBatch and RecShardExtension payload, in shard order.
	Subs []Sub
}

// Sub is one shard's part of a sharded store's record: the shard, the
// epoch the record published on it, and, in a batch, the ops it applied
// there.
type Sub struct {
	Shard int
	Epoch uint64
	Ops   []Op
}

const (
	fileMagic   = "BCQWAL1\n"
	headerSize  = len(fileMagic)
	frameHeader = 8 // u32 length + u32 crc
	// maxRecordBytes bounds a frame's declared payload so a corrupt
	// length field can't drive a giant allocation.
	maxRecordBytes = 1 << 30
	// fillChunk is how far past its frame an append that does not fit in
	// the file extends it, with fillByte: the fill that later appends
	// overwrite in place.
	fillChunk = 1 << 20
	fillByte  = 0xFF
	// stagedFrame bounds the frames an extending append copies into
	// stage; a longer one gets a buffer of its own.
	stagedFrame = 64 << 10
)

// stage is what an extending append writes from: its frame is copied to
// end right where stage[stagedFrame:] begins, and that part holds
// fillChunk fill bytes and is never written again once filled, so frame
// and fill go down in one Write without a fresh MiB per extension. It is
// one block for the process (a package array: no heap), filled on first
// use; stageMu serializes the logs that extend at once.
var (
	stage     [stagedFrame + fillChunk]byte
	stageOnce sync.Once
	stageMu   sync.Mutex
)

// fill returns the shared fill block: fillChunk fill bytes, read-only.
func fill() []byte {
	stageOnce.Do(func() {
		for i := range stage {
			stage[i] = fillByte
		}
	})
	return stage[stagedFrame:]
}

// isFill reports whether b holds fill bytes only.
func isFill(b []byte) bool {
	for _, c := range b {
		if c != fillByte {
			return false
		}
	}
	return true
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrInjectedCrash is returned by Append when an armed fail point fires:
// the frame was deliberately left torn on disk and not fsynced, emulating
// a crash mid-commit. Tests reopen the directory afterwards and assert
// recovery lands on the committed prefix.
var ErrInjectedCrash = errors.New("wal: injected crash (torn append)")

// Stats is a snapshot of the log's counters, bridged into the bcq_wal_*
// metrics series.
type Stats struct {
	Appends          int64
	AppendedBytes    int64
	SizeBytes        int64
	ReplayedRecords  int64
	TruncatedRecords int64
}

// File is what the log asks of its *os.File. It exists so a test can
// stand between the log and the disk (WrapFile) and make a Write or a
// Sync return an error — something a real file cannot be told to do.
type File interface {
	io.Writer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is an append-only log over a single file. Appends are serialized by
// the owning store's writer mutex; the internal mutex only guards against
// misuse.
type WAL struct {
	path string

	mu     sync.Mutex
	f      File
	closed bool
	// err is the first I/O error an Append or Reset ran into. A failed
	// Append rewinds the file to the last acknowledged frame (see Append),
	// but the disk that failed once is not trusted again: the log refuses
	// all further writes with this error until it is reopened, which
	// re-scans the file and cuts whatever a failed rewind left behind.
	err error

	// starts holds where each record Open replayed begins, for Cut; the
	// first Append or Reset drops it.
	starts []int64

	// alloc is the file's size: sizeBytes, then the fill tail.
	alloc int64

	appends       atomic.Int64
	appendedBytes atomic.Int64
	sizeBytes     atomic.Int64 // header + acknowledged frames
	replayed      atomic.Int64
	truncated     atomic.Int64
}

// Open opens (creating if absent) the log at path, replays every valid
// record, truncates any torn or corrupt tail (keeping a fill tail), and
// returns the log positioned for appends together with the decoded
// records in append order.
func Open(path string) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// One read into a buffer of the file's size: a crashed log holds up
	// to fillChunk of fill past its frames, which a growing buffer would
	// copy many times over.
	var data []byte
	st, err := f.Stat()
	if err == nil {
		data = make([]byte, st.Size())
		_, err = io.ReadFull(f, data)
	}
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	w := &WAL{path: path, f: f}
	if len(data) < headerSize {
		// Empty or torn at creation (the header write itself crashed):
		// no record can exist yet, start the file over.
		if err := w.reinit(); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, nil, nil
	}
	if string(data[:headerSize]) != fileMagic {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %s is not a WAL file (bad magic)", path)
	}
	var records []Record
	valid := headerSize
	w.alloc = int64(len(data))
	// Where the rest of the file is fill, the log ends cleanly.
	for valid < len(data) && (data[valid] != fillByte || !isFill(data[valid:])) {
		rec, n, err := decodeFrame(data[valid:])
		if err != nil {
			// Torn or corrupt: stop at the last good record rather than
			// guessing, and cut the tail there.
			w.truncated.Add(1)
			if err := f.Truncate(int64(valid)); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, err
			}
			w.alloc = int64(valid)
			break
		}
		records = append(records, rec)
		w.starts = append(w.starts, int64(valid))
		valid += n
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.sizeBytes.Store(int64(valid))
	w.replayed.Store(int64(len(records)))
	return w, records, nil
}

// appendFrame appends one record's frame: its payload's length and CRC,
// then the payload.
func appendFrame(dst []byte, rec Record) []byte {
	payload := rec.encode()
	dst = slices.Grow(dst, frameHeader+len(payload))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// decodeFrame reads the frame at the start of b, returning its record and
// its length. A frame that is torn, declares more than maxRecordBytes,
// fails its CRC or holds a payload that does not decode is an error: what
// a crash or a flipped bit leaves behind is never taken for a record.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, fmt.Errorf("wal: torn frame header (%d bytes)", len(b))
	}
	length := int(binary.BigEndian.Uint32(b[0:4]))
	if length > maxRecordBytes || len(b) < frameHeader+length {
		return Record{}, 0, fmt.Errorf("wal: frame of %d bytes with %d left", length, len(b)-frameHeader)
	}
	payload := b[frameHeader : frameHeader+length]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(b[4:8]) {
		return Record{}, 0, fmt.Errorf("wal: frame CRC mismatch")
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameHeader + length, nil
}

// reinit rewrites the file header from scratch (empty file or torn
// creation).
func (w *WAL) reinit() error {
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := w.f.Write([]byte(fileMagic)); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.truncatedTo(int64(headerSize))
	return nil
}

// truncatedTo records that the file was cut to size, which is where the
// log now ends: no fill is left.
func (w *WAL) truncatedTo(size int64) {
	w.sizeBytes.Store(size)
	w.alloc = size
}

// fail makes err the log's sticky failure (see WAL.err) and returns it.
func (w *WAL) fail(err error) error {
	w.err = err
	return err
}

// rewind makes err the log's sticky failure and truncates the file back to
// its acknowledged size, fsyncing the cut. If the rewind fails too, the
// file may still end in the failed frame; the log stays refused and a
// reopen decides what the tail holds.
func (w *WAL) rewind(err error) error {
	w.fail(err)
	if errors.Is(err, ErrInjectedCrash) {
		return err
	}
	size := w.sizeBytes.Load()
	if w.f.Truncate(size) == nil {
		w.alloc = size
		if _, serr := w.f.Seek(size, io.SeekStart); serr == nil {
			w.f.Sync()
		}
	}
	return err
}

// Append frames, writes, and fsyncs one record: one Write and one Sync.
// The frame overwrites fill when it fits in the file, and extends the
// file by its length and fillChunk when it does not. It returns only
// after the record is durable — the caller publishes the epoch
// afterwards, which is what makes the log a write-AHEAD log. A failed
// write or fsync poisons the log (see WAL.err) and rewinds the file to
// its acknowledged size:
// the log has one writer, so no acknowledged frame lies past the failed
// one, and a reopen replays exactly the acknowledged records — never the
// frame of a batch whose commit returned the error. An injected crash
// (SetFailPoint) is not rewound: it models a process that died mid-write.
func (w *WAL) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: append on closed log %s", w.path)
	}
	if w.err != nil {
		return w.err
	}
	w.starts = nil
	frame := appendFrame(nil, rec)

	end := w.sizeBytes.Load() + int64(len(frame))
	var err error
	if end <= w.alloc {
		_, err = w.f.Write(frame)
	} else {
		err = w.extend(frame, end)
	}
	if err != nil {
		return w.rewind(fmt.Errorf("wal: append to %s: %w", w.path, err))
	}
	if err := w.f.Sync(); err != nil {
		return w.rewind(fmt.Errorf("wal: fsync %s: %w", w.path, err))
	}
	w.sizeBytes.Add(int64(len(frame)))
	w.appends.Add(1)
	w.appendedBytes.Add(int64(len(frame)))
	return nil
}

// extend writes frame, which ends at end, followed by fillChunk fill
// bytes in one Write, and leaves the file positioned at end.
func (w *WAL) extend(frame []byte, end int64) error {
	var err error
	if len(frame) <= stagedFrame {
		fill()
		stageMu.Lock()
		at := stagedFrame - len(frame)
		copy(stage[at:], frame)
		_, err = w.f.Write(stage[at:])
		stageMu.Unlock()
	} else {
		_, err = w.f.Write(append(frame, fill()...))
	}
	if err != nil {
		return err
	}
	w.alloc = end + fillChunk
	_, err = w.f.Seek(end, io.SeekStart)
	return err
}

// Cut drops the records Open replayed from the keep-th on (counting from
// 0, in the order Open returned them): the file is truncated where that
// record began, and the cut is fsynced before Cut returns. Recovery calls
// it when its replay stopped short of the log's end, before the log takes
// appends again: a record appended behind ones no replay will reach would
// be dropped by every later Open with them. Cut is valid only before the
// log's first Append or Reset.
func (w *WAL) Cut(keep int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch {
	case w.closed:
		return fmt.Errorf("wal: cut on closed log %s", w.path)
	case w.err != nil:
		return w.err
	case keep < 0 || keep > len(w.starts):
		return fmt.Errorf("wal: cut %s at record %d, which Open did not replay", w.path, keep)
	case keep == len(w.starts):
		return nil
	}
	size := w.starts[keep]
	if err := w.f.Truncate(size); err != nil {
		return w.fail(fmt.Errorf("wal: cut %s: %w", w.path, err))
	}
	if _, err := w.f.Seek(size, io.SeekStart); err != nil {
		return w.fail(fmt.Errorf("wal: cut %s: %w", w.path, err))
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("wal: cut %s: %w", w.path, err))
	}
	w.starts = w.starts[:keep]
	w.truncatedTo(size)
	return nil
}

// Reset truncates the log back to its header. The store calls it right
// after a checkpoint segment has been published: every logged record is
// now folded into the segment, so the log restarts empty.
func (w *WAL) Reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("wal: reset on closed log %s", w.path)
	}
	if w.err != nil {
		return w.err
	}
	w.starts = nil
	if err := w.f.Truncate(int64(headerSize)); err != nil {
		return w.fail(fmt.Errorf("wal: reset %s: %w", w.path, err))
	}
	if _, err := w.f.Seek(int64(headerSize), io.SeekStart); err != nil {
		return w.fail(fmt.Errorf("wal: reset %s: %w", w.path, err))
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(fmt.Errorf("wal: reset %s: %w", w.path, err))
	}
	w.truncatedTo(int64(headerSize))
	return nil
}

// HasRecords reports whether the log currently holds any records (i.e.
// there is anything a reopen would replay).
func (w *WAL) HasRecords() bool {
	return w.sizeBytes.Load() > int64(headerSize)
}

// Close trims the fill tail, fsyncs and closes the file. Idempotent. A
// log that failed keeps its file as the failure left it, for a reopen to
// read.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if size := w.sizeBytes.Load(); w.err == nil && w.alloc > size {
		if err := w.f.Truncate(size); err != nil {
			w.f.Close()
			return fmt.Errorf("wal: trim %s: %w", w.path, err)
		}
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Stats returns a snapshot of the log's counters.
func (w *WAL) Stats() Stats {
	return Stats{
		Appends:          w.appends.Load(),
		AppendedBytes:    w.appendedBytes.Load(),
		SizeBytes:        w.sizeBytes.Load(),
		ReplayedRecords:  w.replayed.Load(),
		TruncatedRecords: w.truncated.Load(),
	}
}

// Path returns the log's file path.
func (w *WAL) Path() string { return w.path }

// WrapFile puts wrap(f) in place of the file f the log writes through.
// It is the seam failure tests inject I/O errors at.
func (w *WAL) WrapFile(wrap func(File) File) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.f = wrap(w.f)
}

// SetFailPoint arms a crash-injection point: the n-th subsequent Append
// (1 = the next one) writes only the first torn bytes of its frame,
// skips the fsync, and returns ErrInjectedCrash. Crash-recovery property
// tests use it to produce every possible torn-tail state
// deterministically.
func (w *WAL) SetFailPoint(n, torn int) {
	w.WrapFile(func(f File) File { return &tornFile{File: f, after: n, torn: torn} })
}

// tornFile is the fail point: its after-th Write (an Append writes
// exactly once) puts down a torn prefix and fails, which is what a crash
// mid-write leaves behind.
type tornFile struct {
	File
	after, torn int
}

func (f *tornFile) Write(p []byte) (int, error) {
	if f.after--; f.after != 0 {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:min(f.torn, len(p))])
	if err != nil {
		return n, err
	}
	return n, ErrInjectedCrash
}
