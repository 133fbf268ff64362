package exec

import (
	"slices"
	"sync/atomic"

	"bcq/internal/value"
)

// Versioned is a Store whose reads can be told apart by version words: a
// live snapshot (one shard) or a sharded view. Every index group and every
// relation's emptiness maps to a word of its owning shard's store, and a
// word holds the epoch of the last commit that rewrote something mapping
// to it (internal/live, version.go). A sealed database has no words: it
// never changes.
type Versioned interface {
	Store
	// NumShards is the partition count (1 for an unsharded snapshot).
	NumShards() int
	// ShardEpoch is one shard's pinned epoch.
	ShardEpoch(shard int) uint64
	// GroupWords appends to dst the word of each X-group xs[i] of
	// constraint acKey, in probe order, on the shard that owns the group.
	GroupWords(dst []uint32, acKey string, xs []value.Tuple) []uint32
	// RelWord is the word of a relation's emptiness on every shard.
	RelWord(rel string) uint32
	// Words returns one shard's words, to be read with Load and never
	// written: they stand at the store's latest commit, not at the pinned
	// epoch.
	Words(shard int) []atomic.Uint64
}

// ReadSet is what one execution read, as version words: the word of every
// index group it probed, on the shard that owns the group, and for every
// existence check the relation's word on every shard. By Q(D) = Q(D_Q) an
// answer can change only when one of them moves, which is how a result
// cache keeps an answer across writes that touch nothing it read. Record
// into one through StreamOptions.Reads; a ReadSet is reusable after Reset.
type ReadSet struct {
	// words holds shard<<32 | word, in recording order until Words sorts
	// and deduplicates them; batch is one probe batch's group words.
	words []uint64
	batch []uint32
}

// Words returns the read set deduplicated, in ascending order of shard,
// then word. The slice is the ReadSet's own, valid until its next Reset.
func (rs *ReadSet) Words() []uint64 {
	slices.Sort(rs.words)
	rs.words = slices.Compact(rs.words)
	return rs.words
}

// Reset empties the read set, keeping its storage.
func (rs *ReadSet) Reset() { rs.words = rs.words[:0] }

// ReadWord splits a Words element into its shard and word.
func ReadWord(r uint64) (shard int, word uint32) { return int(r >> 32), uint32(r) }

func (rs *ReadSet) add(shard int, w uint32) {
	rs.words = append(rs.words, uint64(shard)<<32|uint64(w))
}

// recordGroups adds the words of one probe batch's groups: xs[i] was
// answered by shard owners[i] (shard 0 when owners is nil).
func (r *run) recordGroups(acKey string, xs []value.Tuple, owners []int) {
	rs := r.reads
	rs.batch = r.versioned.GroupWords(rs.batch[:0], acKey, xs)
	for i, w := range rs.batch {
		shard := 0
		if owners != nil {
			shard = owners[i]
		}
		rs.add(shard, w)
	}
}

// recordRel adds the words of one existence check: the relation's word on
// every shard, since the answer is whether any shard holds a tuple.
func (r *run) recordRel(rel string) {
	w := r.versioned.RelWord(rel)
	for s := 0; s < r.versioned.NumShards(); s++ {
		r.reads.add(s, w)
	}
}
