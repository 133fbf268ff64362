package exec

import (
	"hash/maphash"
	"slices"

	"bcq/internal/value"
)

// This file holds the flat, id-encoded state of a Stream. Every value the
// stream reads — a seed constant, an entry column a step binds or a
// verification checks — is interned once into a dense uint32 id by the
// stream's valueDict; candidate sets, row tables, join indexes, the answer
// dedup and D_Q then run over those integers. Ids are private to one
// stream (first-seen order of that evaluation) and never leave it: a
// value.Tuple is rebuilt from them only when Next hands an answer out.
//
// All of it is sized by what the stream fetched — O(|D_Q|), never by |D| or
// by a relation — and grows by doubling from small capacities, so a point
// read pays for a handful of words and a wave of a long scan allocates
// nothing once its tables have reached their size. state.go keeps those
// sizes from one stream to the next.
//
// The open-addressed tables share one shape: a power-of-two slot array at
// load ≤ 3/4, linear probing, a slot holding 1 + the index of an element
// stored elsewhere (0: empty), rehashed from the elements on growth.

const minSlots = 8

// mix spreads a word over all 64 bits, low bits included (the tables mask
// the low ones).
func mix(h uint64) uint64 {
	h *= 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// hashIDs hashes the id words vals[at[0]], vals[at[1]], ….
func hashIDs(vals []uint32, at []int) uint64 {
	h := uint64(len(at))
	for _, k := range at {
		h = mix(h ^ uint64(vals[k]))
	}
	return h
}

// hashRow hashes a whole row of id words.
func hashRow(row []uint32) uint64 {
	h := uint64(len(row))
	for _, id := range row {
		h = mix(h ^ uint64(id))
	}
	return h
}

// full reports whether a table of the given slot count must grow before
// it takes element n+1: the tables run at a load of at most 3/4.
func full(n, slots int) bool { return 4*n >= 3*slots }

// grownSlots returns an empty slot array twice the size of the old one.
func grownSlots(old []uint32) []uint32 {
	return make([]uint32, max(minSlots, 2*len(old)))
}

var dictSeed = maphash.MakeSeed()

// valueDict interns values: value → dense id in first-seen order, id →
// value by slice index. Two values share an id exactly when they are
// Go-equal (Int(1) ≠ Str("1"), null is a value like any other). Interning
// is the only hash the wave path computes over a value, and for an integer
// that hash is one multiplication. A value is kept as its kind and one
// word — the integer, or the string's index in strs — nine bytes where a
// value.Value takes thirty-two.
type valueDict struct {
	kinds []value.Kind
	words []int64
	strs  []string
	slots []uint32
}

// value rebuilds the value behind an id.
func (d *valueDict) value(id uint32) value.Value {
	switch d.kinds[id] {
	case value.KindInt:
		return value.Int(d.words[id])
	case value.KindString:
		return value.Str(d.strs[d.words[id]])
	default:
		return value.Null
	}
}

// hashOf hashes a value given as its kind and payload (the one the kind
// uses).
func hashOf(kind value.Kind, i int64, str string) uint64 {
	switch kind {
	case value.KindInt:
		return mix(uint64(i))
	case value.KindString:
		return maphash.String(dictSeed, str)
	default:
		return 0
	}
}

// intern returns the value's id, assigning the next one on first sight.
func (d *valueDict) intern(v value.Value) uint32 {
	if full(len(d.kinds), len(d.slots)) {
		d.grow()
	}
	kind := v.Kind()
	var word int64
	var str string
	switch kind {
	case value.KindInt:
		word = v.AsInt()
	case value.KindString:
		str = v.AsString()
	}
	mask := uint64(len(d.slots) - 1)
	for i := hashOf(kind, word, str) & mask; ; i = (i + 1) & mask {
		s := d.slots[i]
		if s == 0 {
			if kind == value.KindString {
				word = int64(len(d.strs))
				d.strs = append(d.strs, str)
			}
			d.kinds = append(d.kinds, kind)
			d.words = append(d.words, word)
			d.slots[i] = uint32(len(d.kinds))
			return uint32(len(d.kinds) - 1)
		}
		id := s - 1
		if d.kinds[id] != kind {
			continue
		}
		if kind == value.KindString {
			if d.strs[d.words[id]] == str {
				return id
			}
		} else if d.words[id] == word {
			return id
		}
	}
}

func (d *valueDict) grow() {
	d.slots = grownSlots(d.slots)
	mask := uint64(len(d.slots) - 1)
	for id, kind := range d.kinds {
		var str string
		if kind == value.KindString {
			str = d.strs[d.words[id]]
		}
		i := hashOf(kind, d.words[id], str) & mask
		for d.slots[i] != 0 {
			i = (i + 1) & mask
		}
		d.slots[i] = uint32(id + 1)
	}
}

// candSet is one class's candidate values as ids: insertion-ordered (for
// deterministic combo enumeration) with one-bit membership. The bitset
// spans the ids interned so far, not a domain.
type candSet struct {
	ids  []uint32
	bits []uint64
}

func (c *candSet) contains(id uint32) bool {
	w := int(id >> 6)
	return w < len(c.bits) && c.bits[w]>>(id&63)&1 != 0
}

func (c *candSet) add(id uint32) {
	w := int(id >> 6)
	if w >= len(c.bits) {
		c.bits = append(c.bits, make([]uint64, w+1-len(c.bits))...)
	}
	if bit := uint64(1) << (id & 63); c.bits[w]&bit == 0 {
		c.bits[w] |= bit
		c.ids = append(c.ids, id)
	}
}

// rowSet is an insertion-ordered set of fixed-width id rows in one flat
// array: the storage of a verified row table and of the answer dedup. A
// slot refers to a row by number, so a row is stored once and no key is
// ever encoded for it.
type rowSet struct {
	stride int
	n      int
	rows   []uint32
	slots  []uint32
}

// row returns row rn's id words.
func (rs *rowSet) row(rn int) []uint32 {
	return rs.rows[rn*rs.stride : (rn+1)*rs.stride]
}

// insert appends the row unless the set has it and reports whether it was
// new. The argument is copied.
func (rs *rowSet) insert(row []uint32) bool {
	if full(rs.n, len(rs.slots)) {
		rs.grow()
	}
	mask := uint64(len(rs.slots) - 1)
	for i := hashRow(row) & mask; ; i = (i + 1) & mask {
		s := rs.slots[i]
		if s == 0 {
			rs.rows = append(rs.rows, row...)
			rs.n++
			rs.slots[i] = uint32(rs.n)
			return true
		}
		if slices.Equal(rs.row(int(s-1)), row) {
			return false
		}
	}
}

func (rs *rowSet) grow() {
	rs.slots = grownSlots(rs.slots)
	mask := uint64(len(rs.slots) - 1)
	for rn := 0; rn < rs.n; rn++ {
		i := hashRow(rs.row(rn)) & mask
		for rs.slots[i] != 0 {
			i = (i + 1) & mask
		}
		rs.slots[i] = uint32(rn + 1)
	}
}

// posSet is the D_Q ledger: the set of (relation, shard, position) triples
// the stream fetched, each packed into one non-zero word (dqKey). The
// stored words are the slots themselves.
type posSet struct {
	slots []uint64
	n     int64
}

// D_Q key layout: 12 bits of 1 + relation ordinal, 12 bits of shard, 40
// bits of position. The ordinal is resolved once per plan operation; a
// stream refuses what does not fit rather than let two tuples collide.
const (
	dqPosBits   = 40
	dqShardBits = 12
	dqRelBits   = 12
)

func dqKey(rel, shard, pos int) uint64 {
	return uint64(rel+1)<<(dqShardBits+dqPosBits) | uint64(shard)<<dqPosBits | uint64(pos)
}

func (p *posSet) add(key uint64) {
	if full(int(p.n), len(p.slots)) {
		p.grow()
	}
	mask := uint64(len(p.slots) - 1)
	for i := mix(key) & mask; ; i = (i + 1) & mask {
		switch p.slots[i] {
		case 0:
			p.slots[i] = key
			p.n++
			return
		case key:
			return
		}
	}
}

func (p *posSet) grow() {
	old := p.slots
	p.slots = make([]uint64, max(minSlots, 2*len(old)))
	mask := uint64(len(p.slots) - 1)
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := mix(key) & mask
		for p.slots[i] != 0 {
			i = (i + 1) & mask
		}
		p.slots[i] = key
	}
}
