package live

import (
	"strconv"
	"sync/atomic"

	"bcq/internal/value"
)

// Version words: what lets a reader tell, after the fact, whether a write
// touched anything an execution read. By the paper's Q(D) = Q(D_Q), a
// bounded answer depends only on the index groups its plan probed (and
// on whether the relations its existence checks read are empty), so an
// answer computed at epoch E0 is still the answer at a later epoch V when
// no commit in (E0, V] rewrote one of those groups.
//
// A store keeps a fixed array of words. The first groupWords are indexed
// by a hash of (constraint key, X-key) and hold the epoch of the last
// commit that rewrote a group hashing to the word; one more word per
// relation holds the epoch of the last commit that flipped the relation
// between empty and non-empty. A commit stores its epoch into its words
// before it publishes its snapshot, so a reader that pinned V sees the
// words of every commit up to V: an execution at E0 whose words all read
// at most E0 is still current at V. Two groups sharing a word cost a
// reader a needless miss, never a stale answer.
//
// Compact changes no data and writes no word; ExtendAccess raises every
// word to its epoch (see publishExtension).

// groupWords is the number of version words index groups hash onto (a
// power of two). 16 Ki words are 128 KB per store; a commit of a few
// dozen groups then moves a given word with odds of a few in a thousand.
const groupWords = 1 << 14

// newWords allocates a store's version words: the group words, then one
// per relation of the catalog, in catalog order (relWord).
func (st *Store) newWords() {
	st.words = make([]atomic.Uint64, groupWords+st.cat.NumRelations())
}

// relWord is the version word of the relation of catalog ordinal ord.
func relWord(ord int) uint32 { return uint32(groupWords + ord) }

// groupSeed and groupHash are the one hash of an X-group, for the writer
// (which holds X-keys as strings) and the reader (which encodes them into
// a buffer) alike: FNV-1a over the constraint key — the seed, which a
// binding computes once — then over the X-key, finished with a 64-bit
// mixer so that the low bits are spread. Its low bits pick the group's
// version word (groupWord), and all of it keys the group in its
// constraint's trie (trie.go). It is the same in every process, so what
// collides in one run collides in every run.
func groupSeed(acKey string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(acKey); i++ {
		h = (h ^ uint64(acKey[i])) * fnvPrime
	}
	return h * fnvPrime // the separator: h ^ 0 is h
}

const fnvPrime = 1099511628211

func groupHash[K string | []byte](seed uint64, xk K) uint64 {
	h := seed
	for i := 0; i < len(xk); i++ {
		h = (h ^ uint64(xk[i])) * fnvPrime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// groupWord is the version word of the group whose hash is h.
func groupWord(h uint64) uint32 { return uint32(h & (groupWords - 1)) }

// AppendGroupWords appends the index of the version word of each X-group
// xs[i] of constraint acKey (X-values in the constraint's X order, as
// probes give them), in probe order. The words are the same on every
// store, so a sharded view answers for all its shards with it.
func AppendGroupWords(dst []uint32, acKey string, xs []value.Tuple) []uint32 {
	seed := groupSeed(acKey)
	var kb [value.KeyBufSize]byte
	for _, x := range xs {
		dst = append(dst, groupWord(groupHash(seed, x.AppendKey(kb[:0]))))
	}
	return dst
}

// stampRelations stores a commit's epoch into the words of the relations
// whose emptiness it flipped; the commit stores it into the words of the
// groups it rewrote as it hashes them (Store.commit). It runs under the
// writer mutex, before the commit's snapshot is published.
func (st *Store) stampRelations(tx *txn, next *Snapshot) {
	for ord := range next.rels {
		if (tx.snap.rels[ord].size > 0) != (next.rels[ord].size > 0) {
			st.words[relWord(ord)].Store(next.epoch)
		}
	}
}

// raiseWords stores epoch into every word: a schema extension, which
// publishes no data change, moves every answer's words this way rather
// than reason about which plans a wider schema can change.
func (st *Store) raiseWords(epoch uint64) {
	for i := range st.words {
		st.words[i].Store(epoch)
	}
}

// The methods below make a snapshot an exec.Versioned store: a single
// partition, whose words are its store's.

// NumShards is 1: a snapshot is one partition.
func (s *Snapshot) NumShards() int { return 1 }

// ShardEpoch returns the snapshot's epoch (its only shard is 0).
func (s *Snapshot) ShardEpoch(int) uint64 { return s.epoch }

// GroupWords appends the version word of each X-group xs[i] of constraint
// acKey.
func (s *Snapshot) GroupWords(dst []uint32, acKey string, xs []value.Tuple) []uint32 {
	return AppendGroupWords(dst, acKey, xs)
}

// RelWord returns the version word of a catalog relation's emptiness.
func (s *Snapshot) RelWord(rel string) uint32 { return relWord(s.st.relOrd[rel]) }

// Words returns the version words of the snapshot's store, to be read
// with Load and never written: they stand at the store's latest commit,
// not at the snapshot's epoch.
func (s *Snapshot) Words(int) []atomic.Uint64 { return s.st.words }

// AppendEpochKey appends EpochKey's rendering to dst without building the
// string.
func (s *Snapshot) AppendEpochKey(dst []byte) []byte {
	return strconv.AppendUint(append(dst, "live:"...), s.epoch, 10)
}
