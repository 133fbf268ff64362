package wal

import (
	"bytes"
	"testing"
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
