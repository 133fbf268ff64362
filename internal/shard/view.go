package shard

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"bcq/internal/live"
	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// View is one published cut of a sharded store: an immutable, fully
// consistent set of the shards' snapshots, with the probe routes and the
// schema version they were published with. It satisfies the executor's
// Store and PartitionedStore interfaces, so bounded evaluation runs
// against a view exactly as it runs against a sealed database or a live
// snapshot — the executor scatters each probe batch to the owning shards
// and gathers the groups back in probe order.
//
// Entry positions returned by a view are shard-local; they identify a
// tuple only together with the shard index that Partition reports, which
// is how the executor keys its D_Q accounting.
type View struct {
	st    *Store
	snaps []*live.Snapshot
	// routes is the probe-routing table of this cut's schema: an
	// ExtendAccess publishes a fresh map with the cut that holds the
	// extension, so a pinned view's routing never changes.
	routes map[string]*locator
	// epoch is the sum of the snapshots' epochs, and version the sum of
	// the shards' schema versions, when the cut was published.
	epoch, version uint64
}

// NumShards returns the partition count P (exec.PartitionedStore).
func (v *View) NumShards() int { return len(v.snaps) }

// Epoch is the cut's token: the sum of its shards' epochs. Every cut a
// store publishes holds each shard at an epoch no older than the cut
// before, so the token is monotone and advances with every commit,
// compaction and schema extension.
func (v *View) Epoch() uint64 { return v.epoch }

// Access returns the access schema of this cut: the one its routes
// route and a Freeze of it indexes under.
func (v *View) Access() *schema.AccessSchema { return v.snaps[0].Access() }

// Epochs returns the pinned epoch vector, aligned with shard indices.
func (v *View) Epochs() []uint64 {
	out := make([]uint64, len(v.snaps))
	for s, sn := range v.snaps {
		out[s] = sn.Epoch()
	}
	return out
}

// EpochKey names the exact data version this view serves, for display
// and for the "epoch" of a response: the full epoch vector, rendered.
func (v *View) EpochKey() string { return string(v.AppendEpochKey(nil)) }

// AppendEpochKey appends EpochKey's rendering to dst without building the
// string.
func (v *View) AppendEpochKey(dst []byte) []byte {
	dst = append(dst, "shard:"...)
	for s, sn := range v.snaps {
		if s > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, sn.Epoch(), 10)
	}
	return dst
}

// The methods below make a view an exec.Versioned store: every shard is a
// live store with version words of its own, hashed alike (live.AppendGroupWords),
// so a word index names a word on whichever shard owns the group.

// ShardEpoch returns one shard's pinned epoch.
func (v *View) ShardEpoch(shard int) uint64 { return v.snaps[shard].Epoch() }

// GroupWords appends the version word of each X-group xs[i] of
// constraint acKey, on the shard that owns it.
func (v *View) GroupWords(dst []uint32, acKey string, xs []value.Tuple) []uint32 {
	return live.AppendGroupWords(dst, acKey, xs)
}

// RelWord returns the version word of a relation's emptiness, on every
// shard.
func (v *View) RelWord(rel string) uint32 { return v.snaps[0].RelWord(rel) }

// Words returns the version words of one shard's store, to be read with
// Load and never written: they stand at the store's latest commit.
func (v *View) Words(shard int) []atomic.Uint64 { return v.snaps[shard].Words(0) }

// Snapshot returns one shard's pinned snapshot.
func (v *View) Snapshot(shard int) *live.Snapshot { return v.snaps[shard] }

// Partition returns the owning shard of each probe in xs
// (exec.PartitionedStore): each probe hashes the shard-key attributes
// embedded in the constraint's X-binding, which for the empty key of a
// pinned relation is always the same shard.
func (v *View) Partition(ac schema.AccessConstraint, xs []value.Tuple) ([]int, error) {
	rt, ok := v.routes[ac.Key()]
	if !ok {
		return nil, fmt.Errorf("shard: no route for constraint %s (not in the access schema)", ac)
	}
	out := make([]int, len(xs))
	for i, x := range xs {
		s, ok := rt.owner(x)
		if !ok {
			return nil, fmt.Errorf("shard: constraint %s expects %d lookup values, got %d", ac, len(ac.X), len(x))
		}
		out[i] = s
	}
	return out, nil
}

// FetchShard probes one shard's index (exec.PartitionedStore). Counts
// accrue to that shard's live store.
func (v *View) FetchShard(shard int, ac schema.AccessConstraint, xs []value.Tuple) ([][]storage.IndexEntry, error) {
	return v.snaps[shard].FetchBatch(ac, xs)
}

// FetchBatch probes the logical index once per X-tuple (exec.Store): each
// probe is routed to its owning shard and the groups are gathered back
// aligned with xs. The executor prefers the explicit scatter-gather path
// (Partition + FetchShard), which additionally reports the owning shards
// for D_Q accounting; FetchBatch exists for callers that treat the view
// as a plain store.
func (v *View) FetchBatch(ac schema.AccessConstraint, xs []value.Tuple) ([][]storage.IndexEntry, error) {
	owners, err := v.Partition(ac, xs)
	if err != nil {
		return nil, err
	}
	out := make([][]storage.IndexEntry, len(xs))
	buckets := make([][]int, len(v.snaps))
	for i, s := range owners {
		buckets[s] = append(buckets[s], i)
	}
	for s, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		sub := make([]value.Tuple, len(idx))
		for j, i := range idx {
			sub[j] = xs[i]
		}
		groups, err := v.snaps[s].FetchBatch(ac, sub)
		if err != nil {
			return nil, err
		}
		for j, i := range idx {
			out[i] = groups[j]
		}
	}
	return out, nil
}

// Fetch probes the logical index with one X-value.
func (v *View) Fetch(ac schema.AccessConstraint, xVals value.Tuple) ([]storage.IndexEntry, error) {
	groups, err := v.FetchBatch(ac, []value.Tuple{xVals})
	if err != nil {
		return nil, err
	}
	return groups[0], nil
}

// NonEmpty reports whether a relation has at least one live tuple in any
// shard (exec.Store). The fan-out stops at the first non-empty shard;
// like the single-store probe it counts one fetched tuple when non-empty
// and nothing when empty.
func (v *View) NonEmpty(rel string) (bool, error) {
	for _, sn := range v.snaps {
		ok, err := sn.NonEmpty(rel)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// NumTuples returns |D| at this view: live tuples across all shards.
func (v *View) NumTuples() int64 {
	var n int64
	for _, sn := range v.snaps {
		n += sn.NumTuples()
	}
	return n
}

// Size returns the live tuple count of one relation across all shards.
func (v *View) Size(rel string) (int64, error) {
	var n int64
	for _, sn := range v.snaps {
		c, err := sn.Size(rel)
		if err != nil {
			return 0, err
		}
		n += c
	}
	return n, nil
}

// ShardSizes returns each shard's live tuple count at this view.
func (v *View) ShardSizes() []int64 {
	out := make([]int64, len(v.snaps))
	for s, sn := range v.snaps {
		out[s] = sn.NumTuples()
	}
	return out
}

// Tuples materializes the live tuples of a relation in the view's
// canonical order — shard 0's live order, then shard 1's, and so on —
// without access accounting. The canonical order is what Freeze loads,
// so "rebuild a single database from the view" is well-defined and
// byte-reproducible.
func (v *View) Tuples(rel string) ([]value.Tuple, error) {
	var out []value.Tuple
	for _, sn := range v.snaps {
		ts, err := sn.Tuples(rel)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// Freeze materializes the whole view as one fresh sealed database: every
// live tuple of every shard inserted in canonical order, indexes built
// for the store's access schema. Within any one index group all member
// tuples live on a single shard (the placement invariant), so the frozen
// database's witness choices coincide with the shards' — bounded
// evaluation on the frozen database is byte-identical to scatter-gather
// evaluation on the view itself, which is what the sharded property
// tests check.
func (v *View) Freeze() (*storage.Database, error) {
	db := storage.NewDatabase(v.st.cat)
	for _, rs := range v.st.cat.Relations() {
		ts, err := v.Tuples(rs.Name())
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			if err := db.Insert(rs.Name(), t); err != nil {
				return nil, err
			}
		}
	}
	// Index under the cut's schema: a view pinned before an ExtendAccess
	// freezes exactly as its epoch stood (every shard of a cut holds the
	// same schema — a cut is published after the extension's last shard
	// commit).
	if err := db.BuildIndexes(v.Access()); err != nil {
		return nil, fmt.Errorf("shard: frozen view violates the access schema (shard-store bug): %w", err)
	}
	return db, nil
}
