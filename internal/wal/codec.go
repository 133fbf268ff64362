// Record payload encoding. All integers are big-endian; strings are
// u32-length-prefixed; tuple values use value.AppendKey's self-delimiting
// encoding (the same bytes the in-memory index keys use).
//
//	payload := u8 kind | u64 epoch | body
//	batch body           := ops
//	extension body       := ext
//	shard batch body     := u32 nsubs | nsubs × (u32 shard | u64 epoch | ops)
//	shard extension body := ext | u32 nsubs | nsubs × (u32 shard | u64 epoch)
//	ops := u32 nops | nops × (u8 opKind | str rel | u32 nvals | vals)
//	ext := str rel | u32 nx | nx × str | u32 ny | ny × str | u64 N
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
		buf = appendOps(buf, rec.Ops)
	case RecExtension:
		buf = rec.appendExtension(buf)
	case RecShardBatch:
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec.Subs)))
		for _, sub := range rec.Subs {
			buf = appendOps(sub.appendHead(buf), sub.Ops)
		}
	case RecShardExtension:
		buf = binary.BigEndian.AppendUint32(rec.appendExtension(buf), uint32(len(rec.Subs)))
		for _, sub := range rec.Subs {
			buf = sub.appendHead(buf)
		}
	}
	return buf
}

func appendOps(buf []byte, ops []Op) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ops)))
	for _, op := range ops {
		buf = append(buf, byte(op.Kind))
		buf = value.AppendStr(buf, op.Rel)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(op.Tuple)))
		for _, v := range op.Tuple {
			buf = v.AppendKey(buf)
		}
	}
	return buf
}

func (rec Record) appendExtension(buf []byte) []byte {
	buf = value.AppendStrs(value.AppendStrs(value.AppendStr(buf, rec.Rel), rec.X), rec.Y)
	return binary.BigEndian.AppendUint64(buf, uint64(rec.N))
}

func (sub Sub) appendHead(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(buf, uint32(sub.Shard)), sub.Epoch)
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
		rec.Ops, b, err = takeOps(b)
	case RecExtension:
		b, err = rec.takeExtension(b)
	case RecShardBatch:
		rec.Subs, b, err = takeSubs(b, true)
	case RecShardExtension:
		if b, err = rec.takeExtension(b); err == nil {
			rec.Subs, b, err = takeSubs(b, false)
		}
	default:
		return rec, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	if err != nil {
		return rec, err
	}
	if len(b) != 0 {
		return rec, fmt.Errorf("wal: %d trailing bytes after record", len(b))
	}
	return rec, nil
}

func takeOps(b []byte) ([]Op, []byte, error) {
	nops, b, err := value.TakeU32(b)
	if err != nil {
		return nil, b, err
	}
	// Each op takes its kind, its relation's length and its value count
	// at least: a count the bytes cannot hold sizes no slice.
	if uint64(nops) > uint64(len(b)/9) {
		return nil, b, fmt.Errorf("wal: %d ops in %d bytes", nops, len(b))
	}
	ops := make([]Op, 0, nops)
	for i := uint32(0); i < nops; i++ {
		var op Op
		if len(b) < 1 {
			return nil, b, fmt.Errorf("wal: truncated op kind")
		}
		op.Kind = OpKind(b[0])
		if op.Kind != OpInsert && op.Kind != OpDelete {
			return nil, b, fmt.Errorf("wal: unknown op kind %d", op.Kind)
		}
		b = b[1:]
		op.Rel, b, err = value.TakeStr(b)
		if err != nil {
			return nil, b, err
		}
		var nvals uint32
		nvals, b, err = value.TakeU32(b)
		if err != nil {
			return nil, b, err
		}
		if uint64(nvals) > uint64(len(b)) { // a value takes a byte at least
			return nil, b, fmt.Errorf("wal: %d values in %d bytes", nvals, len(b))
		}
		op.Tuple = make(value.Tuple, 0, nvals)
		for j := uint32(0); j < nvals; j++ {
			var v value.Value
			v, b, err = value.DecodeValue(b)
			if err != nil {
				return nil, b, fmt.Errorf("wal: op tuple: %w", err)
			}
			op.Tuple = append(op.Tuple, v)
		}
		ops = append(ops, op)
	}
	return ops, b, nil
}

func (rec *Record) takeExtension(b []byte) ([]byte, error) {
	var err error
	if rec.Rel, b, err = value.TakeStr(b); err != nil {
		return b, err
	}
	if rec.X, b, err = value.TakeStrs(b); err != nil {
		return b, err
	}
	if rec.Y, b, err = value.TakeStrs(b); err != nil {
		return b, err
	}
	n, b, err := value.TakeU64(b)
	rec.N = int64(n)
	return b, err
}

// takeSubs decodes a store log record's sub list, each with its ops when
// withOps is set.
func takeSubs(b []byte, withOps bool) ([]Sub, []byte, error) {
	nsubs, b, err := value.TakeU32(b)
	if err != nil {
		return nil, b, err
	}
	if uint64(nsubs) > uint64(len(b)/12) { // a shard and an epoch at least
		return nil, b, fmt.Errorf("wal: %d sub-batches in %d bytes", nsubs, len(b))
	}
	subs := make([]Sub, 0, nsubs)
	for i := uint32(0); i < nsubs; i++ {
		var sub Sub
		var shard uint32
		if shard, b, err = value.TakeU32(b); err != nil {
			return nil, b, err
		}
		sub.Shard = int(shard)
		if sub.Epoch, b, err = value.TakeU64(b); err != nil {
			return nil, b, err
		}
		if withOps {
			if sub.Ops, b, err = takeOps(b); err != nil {
				return nil, b, err
			}
		}
		subs = append(subs, sub)
	}
	return subs, b, nil
}
