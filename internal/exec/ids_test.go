package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"bcq/internal/value"
)

// randValue draws from a small domain built to collide: integers, strings
// that render like those integers, the empty string and null.
func randValue(rng *rand.Rand, domain int) value.Value {
	n := int64(rng.Intn(domain) - domain/4)
	switch rng.Intn(8) {
	case 0:
		return value.Null
	case 1:
		return value.Str("")
	case 2, 3:
		return value.Str(strconv.FormatInt(n, 10))
	case 4:
		return value.Int(n << 33) // only the high word differs
	default:
		return value.Int(n)
	}
}

// TestValueDictMatchesMap: the dictionary assigns ids exactly as a
// map[value.Value]uint32 in first-seen order would, through every growth,
// and gives every value back.
func TestValueDictMatchesMap(t *testing.T) {
	for _, domain := range []int{4, 60, 5000} {
		rng := rand.New(rand.NewSource(int64(domain)))
		var d valueDict
		ref := map[value.Value]uint32{}
		for i := 0; i < 20000; i++ {
			v := randValue(rng, domain)
			want, seen := ref[v]
			if !seen {
				want = uint32(len(ref))
				ref[v] = want
			}
			if got := d.intern(v); got != want {
				t.Fatalf("domain %d, insert %d: intern(%v) = %d, want %d", domain, i, v, got, want)
			}
		}
		if len(d.kinds) != len(ref) {
			t.Fatalf("domain %d: dictionary holds %d values, reference %d", domain, len(d.kinds), len(ref))
		}
		for v, id := range ref {
			if got := d.value(id); got != v {
				t.Fatalf("domain %d: value(%d) = %v, want %v", domain, id, got, v)
			}
		}
	}
	// The kinds stay apart and null is a value of its own.
	var d valueDict
	ids := []uint32{d.intern(value.Int(1)), d.intern(value.Str("1")), d.intern(value.Null), d.intern(value.Str("")), d.intern(value.Int(0))}
	if !slices.Equal(ids, []uint32{0, 1, 2, 3, 4}) {
		t.Fatalf("Int(1), Str(\"1\"), null, Str(\"\"), Int(0) interned as %v", ids)
	}
}

// TestCandSetMatchesMap: membership and insertion order against the
// map-and-slice pair the set replaces, over sparse ids.
func TestCandSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var c candSet
	has := map[uint32]bool{}
	var order []uint32
	for i := 0; i < 5000; i++ {
		id := uint32(rng.Intn(3000))
		if rng.Intn(2) == 0 {
			if got := c.contains(id); got != has[id] {
				t.Fatalf("contains(%d) = %v, want %v", id, got, has[id])
			}
			continue
		}
		if !has[id] {
			has[id] = true
			order = append(order, id)
		}
		c.add(id)
	}
	if !slices.Equal(c.ids, order) {
		t.Fatal("candidate order differs from first-insertion order")
	}
	if c.contains(1 << 30) {
		t.Fatal("an id far past the bitset reads as a member")
	}
}

// TestRowSetMatchesMap: insert's verdict and the stored rows against a
// map keyed by the rendered row, for several widths (0 included: the one
// empty row) through many growths.
func TestRowSetMatchesMap(t *testing.T) {
	for _, stride := range []int{0, 1, 2, 5} {
		rng := rand.New(rand.NewSource(int64(10 + stride)))
		rs := rowSet{stride: stride}
		ref := map[string]int{}
		row := make([]uint32, stride)
		for i := 0; i < 8000; i++ {
			for k := range row {
				row[k] = uint32(rng.Intn(12))
			}
			key := fmt.Sprint(row)
			_, dup := ref[key]
			if got := rs.insert(row); got == dup {
				t.Fatalf("stride %d, insert %d of %v: new = %v, reference says duplicate = %v", stride, i, row, got, dup)
			}
			if !dup {
				ref[key] = len(ref)
			}
			if rs.n != len(ref) {
				t.Fatalf("stride %d: %d rows, reference %d", stride, rs.n, len(ref))
			}
		}
		for rn := 0; rn < rs.n; rn++ {
			if ref[fmt.Sprint(rs.row(rn))] != rn {
				t.Fatalf("stride %d: row %d is %v, which the reference numbered %d", stride, rn, rs.row(rn), ref[fmt.Sprint(rs.row(rn))])
			}
		}
	}
}

// TestPosSetMatchesMap: the D_Q ledger counts distinct (relation, shard,
// position) triples like the nested map it replaces, and its packing keeps
// apart triples that differ in any one part.
func TestPosSetMatchesMap(t *testing.T) {
	type triple struct{ rel, shard, pos int }
	rng := rand.New(rand.NewSource(5))
	var ps posSet
	ref := map[triple]bool{}
	for i := 0; i < 30000; i++ {
		tr := triple{rng.Intn(3), rng.Intn(4), rng.Intn(2000)}
		if rng.Intn(50) == 0 {
			tr = triple{1<<dqRelBits - 2, 1<<dqShardBits - 1, 1<<dqPosBits - 1 - rng.Intn(3)}
		}
		ref[tr] = true
		ps.add(dqKey(tr.rel, tr.shard, tr.pos))
		if ps.n != int64(len(ref)) {
			t.Fatalf("after %d adds: %d distinct, reference %d", i+1, ps.n, len(ref))
		}
	}
	if dqKey(0, 0, 0) == 0 {
		t.Fatal("the first tuple of the first relation packs to the empty slot's word")
	}
}

// TestJoinIndexMatchesMap drives a table and its indexes — one key column
// (chain heads by id) and two (open-addressed) — through interleaved
// inserts, extends and lookups, against a map from key to ascending row
// numbers.
func TestJoinIndexMatchesMap(t *testing.T) {
	for _, cols := range [][]int{{1}, {2, 0}} {
		rng := rand.New(rand.NewSource(int64(20 + len(cols))))
		tbl := &streamTable{rowSet: rowSet{stride: 3}}
		ix := tbl.index(cols)
		if tbl.index(cols) != ix {
			t.Fatal("a second request for the same key columns built a second index")
		}
		ref := map[string][]int32{}
		indexed := 0
		keyOf := func(vals []uint32, at []int) string {
			key := make([]uint32, len(at))
			for k, a := range at {
				key[k] = vals[a]
			}
			return fmt.Sprint(key)
		}
		row := make([]uint32, 3)
		// The probing side reads its key from a class → id binding.
		bind := make([]uint32, 8)
		classes := []int{5, 2}[:len(cols)]
		for i := 0; i < 6000; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				for k := range row {
					row[k] = uint32(rng.Intn(40))
				}
				tbl.insert(row)
			case 2:
				ix.extend()
				for ; indexed < tbl.n; indexed++ {
					k := keyOf(tbl.row(indexed), cols)
					ref[k] = append(ref[k], int32(indexed))
				}
			default:
				for _, c := range classes {
					bind[c] = uint32(rng.Intn(44))
				}
				var got []int32
				for rn := ix.first(bind, classes); rn >= 0; rn = ix.next[rn] {
					got = append(got, rn)
				}
				if want := ref[keyOf(bind, classes)]; !slices.Equal(got, want) {
					t.Fatalf("cols %v, step %d: key %s walks rows %v, reference %v", cols, i, keyOf(bind, classes), got, want)
				}
			}
		}
		if indexed < 500 {
			t.Fatalf("cols %v: only %d rows indexed; the sequence exercised no growth", cols, indexed)
		}
	}
}
