package exec

import (
	"encoding/binary"
	"fmt"
	"testing"

	"bcq/internal/value"
)

// FuzzIDTables drives a valueDict, a rowSet and a posSet through one
// operation stream decoded from the input — interns, row inserts, D_Q
// adds and resets (a pooled stream state reuses them) — against the Go
// maps the tests above use as oracles. Run it with
//
//	go test -run '^$' -fuzz '^FuzzIDTables$' -fuzztime 20s ./internal/exec/
//
// A failing input lands in testdata/fuzz/FuzzIDTables/ as its regression
// seed.
func FuzzIDTables(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 0, 0, 5, 0, 1, 1, 0, 1, 1, 2, 3, 4, 0, 1, 1})
	f.Add([]byte("\x03\x00\x02abc\x00\x02abc\x00\x01\x01\x00\x03\x00\x00\x00\x01\x02\x02\x03\x01\x02\x02"))
	f.Add([]byte("\x01\x02\x00\x00\x00\x00\x00\x00\x80\x03\x02\x00\x00\x00\x00\x00\x00\x00\x80\x04\x00\x00\x02\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		stride := int(in.byte() % 5)
		var (
			d       valueDict
			dictRef map[value.Value]uint32
			rs      = rowSet{stride: stride}
			rowRef  map[string]int
			ps      posSet
			posRef  map[uint64]bool
		)
		fresh := func() {
			dictRef, rowRef, posRef = map[value.Value]uint32{}, map[string]int{}, map[uint64]bool{}
		}
		fresh()
		row := make([]uint32, stride)
		for ops := 0; len(in) > 0 && ops < 4096; ops++ {
			switch in.byte() % 4 {
			case 0: // intern a value
				v := in.value()
				want, seen := dictRef[v]
				if !seen {
					want = uint32(len(dictRef))
					dictRef[v] = want
				}
				if got := d.intern(v); got != want {
					t.Fatalf("intern(%v) = %d, want %d", v, got, want)
				}
			case 1: // insert a row of small ids, so rows repeat
				for k := range row {
					row[k] = uint32(in.byte() % 8)
				}
				key := fmt.Sprint(row)
				_, dup := rowRef[key]
				if got := rs.insert(row); got == dup {
					t.Fatalf("insert(%v) = %v, reference says duplicate = %v", row, got, dup)
				}
				if !dup {
					rowRef[key] = len(rowRef)
				}
			case 2: // add a D_Q triple, the widest parts included
				rel := int(in.uint64() % (1<<dqRelBits - 1))
				shard := int(in.uint64() % (1 << dqShardBits))
				pos := int(in.uint64() % (1 << dqPosBits))
				key := dqKey(rel, shard, pos)
				posRef[key] = true
				ps.add(key)
			default: // reset, as a pooled state is before its next stream
				d.reset()
				rs.reset()
				ps.reset()
				fresh()
			}
		}
		if len(d.kinds) != len(dictRef) {
			t.Fatalf("dictionary holds %d values, reference %d", len(d.kinds), len(dictRef))
		}
		for v, id := range dictRef {
			if got := d.value(id); got != v {
				t.Fatalf("value(%d) = %v, want %v", id, got, v)
			}
		}
		if rs.n != len(rowRef) {
			t.Fatalf("row set holds %d rows, reference %d", rs.n, len(rowRef))
		}
		for rn := 0; rn < rs.n; rn++ {
			if got := rowRef[fmt.Sprint(rs.row(rn))]; got != rn {
				t.Fatalf("row %d is %v, which the reference numbered %d", rn, rs.row(rn), got)
			}
		}
		stored := 0
		for _, k := range ps.slots {
			if k == 0 {
				continue
			}
			if !posRef[k] {
				t.Fatalf("D_Q ledger stores %#x, which was never added", k)
			}
			stored++
		}
		if ps.n != int64(len(posRef)) || stored != len(posRef) {
			t.Fatalf("D_Q ledger counts %d triples and stores %d, reference %d", ps.n, stored, len(posRef))
		}
	})
}

// fuzzInput reads a fuzz input front to back; past its end it reads zeros.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) uint64() uint64 {
	var buf [8]byte
	n := copy(buf[:], *in)
	*in = (*in)[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// value reads a kind byte and its payload: an integer of 8 bytes, or a
// string of up to 15 bytes.
func (in *fuzzInput) value() value.Value {
	switch in.byte() % 3 {
	case 0:
		return value.Null
	case 1:
		return value.Int(int64(in.uint64()))
	default:
		n := min(int(in.byte()%16), len(*in))
		s := string((*in)[:n])
		*in = (*in)[n:]
		return value.Str(s)
	}
}
