package exec

import (
	"fmt"
	"slices"
	"time"

	"bcq/internal/obs"
	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// probeAC evaluates one step's lookup batch — the constraint's index
// probed once per tuple of xs — returning the entry groups aligned with
// xs (group i answers xs[i]) and, on partitioned stores, the owning shard
// of each probe (owners is nil on unsharded stores, meaning shard 0).
//
// Against a plain Store this is a single storage.FetchBatch. Against a
// PartitionedStore with more than one shard it is scatter-gather: probes
// are bucketed by owning shard, each shard's sub-batch is one FetchShard
// call, and groups are written back into probe order. Both run on the
// caller's goroutine: a bounded plan's batches are small, and a hand-off
// costs more than the probes it would spread.
// sp, when non-nil, is the step's trace span: on partitioned stores each
// shard's sub-batch becomes a child span tagged with the shard index.
func (r *run) probeAC(ac schema.AccessConstraint, xs []value.Tuple, sp *obs.Span) ([][]storage.IndexEntry, []int, error) {
	var (
		groups [][]storage.IndexEntry
		owners []int
		err    error
	)
	if ps, ok := r.db.(PartitionedStore); ok && ps.NumShards() > 1 {
		groups, owners, err = r.scatterGather(ps, ac, xs, sp)
	} else {
		groups, err = r.db.FetchBatch(ac, xs)
	}
	if err != nil {
		return nil, nil, err
	}
	if r.reads != nil {
		r.recordGroups(ac.Key(), xs, owners)
	}
	r.lookups += int64(len(xs))
	var fetched int64
	for _, g := range groups {
		fetched += int64(len(g))
	}
	r.fetched += fetched
	if m := r.metrics; m != nil {
		m.Probes.Add(int64(len(xs)))
		m.Fetched.Add(fetched)
	}
	return groups, owners, nil
}

// scatterGather routes a probe batch across the shards of a partitioned
// store: every probe has exactly one owning shard (the store keeps each
// index group whole on one shard), so the gather is pure reassembly — no
// cross-shard merge or deduplication. Sub-batches preserve the relative
// probe order within each shard, and groups land back at their probe's
// position, so the result is byte-identical to probing a single store
// holding the union of the shards.
//
// A batch with one owner — every point read — is that shard's sub-batch as
// it stands: it is handed over whole, nothing bucketed or copied. Spans are
// built only for a traced step.
func (r *run) scatterGather(ps PartitionedStore, ac schema.AccessConstraint, xs []value.Tuple, sp *obs.Span) ([][]storage.IndexEntry, []int, error) {
	owners, err := ps.Partition(ac, xs)
	if err != nil {
		return nil, nil, err
	}
	if len(xs) == 0 {
		return [][]storage.IndexEntry{}, owners, nil
	}
	if !slices.ContainsFunc(owners, func(s int) bool { return s != owners[0] }) {
		groups, err := r.fetchShard(ps, owners[0], ac, xs, shardSpan(sp, owners[0], len(xs)))
		return groups, owners, err
	}

	// Counting sort of the probes by owning shard: shard s owns probes
	// idx[lo[s]:lo[s+1]], in probe order, and sub holds their X-tuples.
	P := ps.NumShards()
	offs := make([]int, 2*P+1)
	lo, fill := offs[:P+1], offs[P+1:]
	for _, s := range owners {
		lo[s+1]++
	}
	for s := 0; s < P; s++ {
		lo[s+1] += lo[s]
	}
	copy(fill, lo)
	idx := make([]int, len(xs))
	sub := make([]value.Tuple, len(xs))
	for i, s := range owners {
		idx[fill[s]], sub[fill[s]] = i, xs[i]
		fill[s]++
	}

	out := make([][]storage.IndexEntry, len(xs))
	for s := 0; s < P; s++ {
		n := lo[s+1] - lo[s]
		if n == 0 {
			continue
		}
		groups, err := r.fetchShard(ps, s, ac, sub[lo[s]:lo[s+1]], shardSpan(sp, s, n))
		if err != nil {
			return nil, nil, err
		}
		for j, g := range groups {
			out[idx[lo[s]+j]] = g
		}
	}
	return out, owners, nil
}

// shardSpan opens the child span of one shard's sub-batch under a traced
// step's span (nil when the step is not traced).
func shardSpan(sp *obs.Span, shard, probes int) *obs.Span {
	if sp == nil {
		return nil
	}
	return sp.Child(fmt.Sprintf("shard %d", shard)).
		TagInt("shard", int64(shard)).
		TagInt("probes", int64(probes))
}

// fetchShard probes one shard with its sub-batch, timing it into the
// shard's probe histogram when metrics are wired (the clock is read only
// then) and ending the sub-batch's span.
func (r *run) fetchShard(ps PartitionedStore, shard int, ac schema.AccessConstraint, sub []value.Tuple, span *obs.Span) ([][]storage.IndexEntry, error) {
	var start time.Time
	if r.metrics != nil {
		start = time.Now()
	}
	groups, err := ps.FetchShard(shard, ac, sub)
	if err != nil {
		span.End()
		return nil, err
	}
	if span != nil {
		var fetched int64
		for _, g := range groups {
			fetched += int64(len(g))
		}
		span.TagInt("fetched", fetched).End()
	}
	if r.metrics != nil {
		r.metrics.ShardProbe(shard).Observe(time.Since(start).Seconds())
	}
	return groups, nil
}
