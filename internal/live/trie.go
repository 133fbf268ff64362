package live

import (
	"cmp"
	"math/bits"
	"slices"

	"bcq/internal/storage"
)

// A snapshot keeps, per constraint, the X-groups written since the base
// in one persistent hash trie: an X-key maps to the group's full entry
// list as of the snapshot's epoch. The trie is keyed by groupHash, the
// hash the version words are read from, five bits a level from the low
// end; a node stores only the slots its bitmap marks, so it is sized to
// its population. A commit path-copies the nodes above the groups it
// rewrote, once per node however many of its groups the batch touched,
// and shares every other node with the epoch before; a probe is one
// hash and one walk from the root. Two keys whose 64-bit hashes are
// equal meet below the last level, in a node that lists its leaves.

const (
	trieBits = 5
	trieMask = 1<<trieBits - 1
)

// trieNode is an inner node. slots holds one entry per set bit of bits,
// in digit order; below the last level (see with) bits is 0 and slots
// lists leaves whose hashes are all equal.
type trieNode struct {
	bits  uint32
	slots []trieSlot
}

// trieSlot is one occupied slot: a subtrie, or a leaf.
type trieSlot struct {
	sub  *trieNode
	leaf *trieLeaf
}

// trieLeaf is one group: its X-key and entries. An empty non-nil group
// shadows a group of the base that the writes emptied.
type trieLeaf struct {
	key   string
	group []storage.IndexEntry
}

// trieEdit is one group a commit rewrote: group goes under key, whose
// hash is hash, or — for a nil group — key leaves the trie.
type trieEdit struct {
	hash  uint64
	key   string
	group []storage.IndexEntry
}

// get returns the group the trie holds under key, whose hash is h.
func (n *trieNode) get(h uint64, key []byte) ([]storage.IndexEntry, bool) {
	for shift := uint(0); n != nil; shift += trieBits {
		if shift >= 64 {
			for _, s := range n.slots {
				if s.leaf.key == string(key) {
					return s.leaf.group, true
				}
			}
			return nil, false
		}
		bit := uint32(1) << (h >> shift & trieMask)
		if n.bits&bit == 0 {
			return nil, false
		}
		s := n.slots[bits.OnesCount32(n.bits&(bit-1))]
		if s.leaf != nil {
			if s.leaf.key == string(key) {
				return s.leaf.group, true
			}
			return nil, false
		}
		n = s.sub
	}
	return nil, false
}

// with returns the trie n, whose keys agree on every digit below shift,
// with the edits applied: the nodes the edits reach are copied, every
// other node is shared. n may be nil, and nil is returned when nothing
// is left. seed is the constraint's hash seed, which rehashes a leaf
// that must move one level down. The edits' keys are distinct; with
// reorders them.
func (n *trieNode) with(edits []trieEdit, shift uint, seed uint64) *trieNode {
	if shift >= 64 {
		return n.withEqualHashes(edits)
	}
	// Old slots by digit, then each run of edits of one digit applied to
	// its slot.
	var slots [1 << trieBits]trieSlot
	var occupied uint32
	if n != nil {
		occupied = n.bits
		for i, b := 0, n.bits; b != 0; i, b = i+1, b&(b-1) {
			slots[bits.TrailingZeros32(b)] = n.slots[i]
		}
	}
	digit := func(e trieEdit) uint64 { return e.hash >> shift & trieMask }
	slices.SortFunc(edits, func(a, b trieEdit) int { return cmp.Compare(digit(a), digit(b)) })
	for len(edits) > 0 {
		d := digit(edits[0])
		run := 1
		for run < len(edits) && digit(edits[run]) == d {
			run++
		}
		if s := slotWith(slots[d], edits[:run], shift+trieBits, seed); s.sub != nil || s.leaf != nil {
			slots[d] = s
			occupied |= 1 << d
		} else {
			slots[d] = trieSlot{}
			occupied &^= 1 << d
		}
		edits = edits[run:]
	}
	if occupied == 0 {
		return nil
	}
	out := &trieNode{bits: occupied, slots: make([]trieSlot, 0, bits.OnesCount32(occupied))}
	for b := occupied; b != 0; b &= b - 1 {
		out.slots = append(out.slots, slots[bits.TrailingZeros32(b)])
	}
	return out
}

// slotWith applies the edits of one digit to the slot holding it, at the
// level below: a leaf alone in its slot is replaced or removed in place,
// and one that another key joins moves into a node of its own with it.
// A node left with a single leaf collapses into that leaf.
func slotWith(s trieSlot, edits []trieEdit, shift uint, seed uint64) trieSlot {
	if s.leaf != nil {
		if len(edits) == 1 && edits[0].key == s.leaf.key {
			return leafSlot(edits[0])
		}
		if !slices.ContainsFunc(edits, func(e trieEdit) bool { return e.key == s.leaf.key }) {
			old := trieEdit{hash: groupHash(seed, s.leaf.key), key: s.leaf.key, group: s.leaf.group}
			edits = append(edits[:len(edits):len(edits)], old)
		}
		s = trieSlot{}
	} else if s.sub == nil && len(edits) == 1 {
		return leafSlot(edits[0])
	}
	sub := s.sub.with(edits, shift, seed)
	if sub != nil && len(sub.slots) == 1 && sub.slots[0].leaf != nil {
		return sub.slots[0]
	}
	return trieSlot{sub: sub}
}

// leafSlot is the slot an edit leaves: its leaf, or nothing.
func leafSlot(e trieEdit) trieSlot {
	if e.group == nil {
		return trieSlot{}
	}
	return trieSlot{leaf: &trieLeaf{key: e.key, group: e.group}}
}

// withEqualHashes is with below the last level, where every key has the
// same hash and the node lists its leaves.
func (n *trieNode) withEqualHashes(edits []trieEdit) *trieNode {
	var out []trieSlot
	if n != nil {
		out = slices.Clone(n.slots)
	}
	for _, e := range edits {
		i := slices.IndexFunc(out, func(s trieSlot) bool { return s.leaf.key == e.key })
		switch {
		case e.group == nil && i >= 0:
			out = slices.Delete(out, i, i+1)
		case e.group == nil:
		case i >= 0:
			out[i] = leafSlot(e)
		default:
			out = append(out, leafSlot(e))
		}
	}
	if len(out) == 0 {
		return nil
	}
	return &trieNode{slots: out}
}
