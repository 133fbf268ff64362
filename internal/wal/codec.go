// Record payload encoding. All integers are big-endian; strings are
// u32-length-prefixed; tuple values use value.AppendKey's self-delimiting
// encoding (the same bytes the in-memory index keys use).
//
//	payload := u8 kind | u64 epoch | body
//	batch body     := u32 nops | nops × (u8 opKind | str rel | u32 nvals | vals)
//	extension body := str rel | u32 nx | nx × str | u32 ny | ny × str | u64 N
package wal

import (
	"encoding/binary"
	"fmt"

	"bcq/internal/value"
)

func (rec Record) encode() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(rec.Kind))
	buf = binary.BigEndian.AppendUint64(buf, rec.Epoch)
	switch rec.Kind {
	case RecBatch:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Ops)))
		for _, op := range rec.Ops {
			buf = append(buf, byte(op.Kind))
			buf = value.AppendStr(buf, op.Rel)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(op.Tuple)))
			for _, v := range op.Tuple {
				buf = v.AppendKey(buf)
			}
		}
	case RecExtension:
		buf = value.AppendStrs(value.AppendStrs(value.AppendStr(buf, rec.Rel), rec.X), rec.Y)
		buf = binary.BigEndian.AppendUint64(buf, uint64(rec.N))
	}
	return buf
}

func decodeRecord(b []byte) (Record, error) {
	var rec Record
	if len(b) < 9 {
		return rec, fmt.Errorf("wal: record too short (%d bytes)", len(b))
	}
	rec.Kind = RecordKind(b[0])
	var err error
	rec.Epoch, b, err = value.TakeU64(b[1:])
	if err != nil {
		return rec, err
	}
	switch rec.Kind {
	case RecBatch:
		var nops uint32
		nops, b, err = value.TakeU32(b)
		if err != nil {
			return rec, err
		}
		// Each op takes its kind, its relation's length and its value count
		// at least: a count the bytes cannot hold sizes no slice.
		if uint64(nops) > uint64(len(b)/9) {
			return rec, fmt.Errorf("wal: %d ops in %d bytes", nops, len(b))
		}
		rec.Ops = make([]Op, 0, nops)
		for i := uint32(0); i < nops; i++ {
			var op Op
			if len(b) < 1 {
				return rec, fmt.Errorf("wal: truncated op kind")
			}
			op.Kind = OpKind(b[0])
			if op.Kind != OpInsert && op.Kind != OpDelete {
				return rec, fmt.Errorf("wal: unknown op kind %d", op.Kind)
			}
			b = b[1:]
			op.Rel, b, err = value.TakeStr(b)
			if err != nil {
				return rec, err
			}
			var nvals uint32
			nvals, b, err = value.TakeU32(b)
			if err != nil {
				return rec, err
			}
			if uint64(nvals) > uint64(len(b)) { // a value takes a byte at least
				return rec, fmt.Errorf("wal: %d values in %d bytes", nvals, len(b))
			}
			op.Tuple = make(value.Tuple, 0, nvals)
			for j := uint32(0); j < nvals; j++ {
				var v value.Value
				v, b, err = value.DecodeValue(b)
				if err != nil {
					return rec, fmt.Errorf("wal: op tuple: %w", err)
				}
				op.Tuple = append(op.Tuple, v)
			}
			rec.Ops = append(rec.Ops, op)
		}
	case RecExtension:
		rec.Rel, b, err = value.TakeStr(b)
		if err != nil {
			return rec, err
		}
		rec.X, b, err = value.TakeStrs(b)
		if err != nil {
			return rec, err
		}
		rec.Y, b, err = value.TakeStrs(b)
		if err != nil {
			return rec, err
		}
		var n uint64
		n, b, err = value.TakeU64(b)
		if err != nil {
			return rec, err
		}
		rec.N = int64(n)
	default:
		return rec, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("wal: %d trailing bytes after record", len(b))
	}
	return rec, nil
}
