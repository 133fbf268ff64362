// Package exec implements evalDQ (paper, Section 6): it evaluates an
// effectively bounded SPC query by running a plan.Plan against the storage
// engine, fetching a bounded subset D_Q of the database through the access
// indices and computing the answer from D_Q alone. The number of tuples it
// touches is at most the plan's FetchBound, independent of |D|.
//
// Execution follows the plan's three phases:
//
//  1. candidate growth: each fetch step probes its index once per distinct
//     combination of candidate values of its X classes, adding the
//     returned distinct Y-values to the per-class candidate sets;
//  2. per-atom verification: each atom's verified row table R_i is either
//     collected from a fetch step's entries (free) or retrieved through
//     the atom's indexedness witness;
//  3. join & project: the R_i are hash-joined in memory on shared Σ_Q
//     classes — no data access — and projected onto Z.
//
// Every step's index probes run as one batch on the caller's goroutine.
// The steps are ordered (each fetch step feeds the candidate sets of the
// next), and a bounded plan's batches are small, so an evaluation is
// sequential; concurrency is across evaluations, which share a sealed
// database or a pinned snapshot.
//
// When the store is partitioned (PartitionedStore — the sharded store of
// internal/shard), each step's probe batch is instead scattered across
// the owning shards and gathered back in probe order: every probe routes
// to exactly one shard, so sharded execution is also byte-identical to
// single-store execution.
package exec

import (
	"bcq/internal/obs"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// Store is the read surface bounded evaluation needs: batched
// access-constraint probes and O(1) non-emptiness checks. A sealed
// *storage.Database satisfies it directly; a live snapshot
// (internal/live.Snapshot) satisfies it by overlaying deltas on a sealed
// base, which is how one executor serves both frozen and live data.
// Implementations must be safe for concurrent use and must return entry
// groups the caller may read but not mutate.
type Store interface {
	// FetchBatch probes the constraint's index once per X-tuple, returning
	// entry groups aligned with xs (group i answers xs[i]).
	FetchBatch(ac schema.AccessConstraint, xs []value.Tuple) ([][]storage.IndexEntry, error)
	// NonEmpty reports whether a relation has at least one tuple.
	NonEmpty(rel string) (bool, error)
}

// PartitionedStore is a Store split into shards such that every access
// index group lives wholly on one shard — each probe has exactly one
// owning shard, so scatter-gather execution never merges or deduplicates
// entry groups across shards. The sharded store (internal/shard) arranges
// this by hash-partitioning each relation on an X-set contained in every
// constraint's X of that relation.
//
// The executor detects the interface and splits each step's probe batch
// shard by shard (see probeAC): probes are bucketed by owning shard, each
// shard's sub-batch is fetched with one FetchShard call, and the groups
// are written back into probe order, so the merge is deterministic and a
// sharded run returns byte-identical Tuples, Stats and DQSize to a
// single-store run over the same data.
//
// Index entry positions are shard-local. They identify a tuple only
// together with the owning shard, which is why Partition's shard vector
// travels alongside the entry groups into D_Q accounting.
type PartitionedStore interface {
	Store
	// NumShards returns the number of partitions P (≥ 1).
	NumShards() int
	// Partition returns the owning shard of each probe in xs, aligned
	// with xs.
	Partition(ac schema.AccessConstraint, xs []value.Tuple) ([]int, error)
	// FetchShard is FetchBatch against one shard's index.
	FetchShard(shard int, ac schema.AccessConstraint, xs []value.Tuple) ([][]storage.IndexEntry, error)
}

// StepAccess is the actual data access of one plan operation: how many
// index probes it issued and how many tuples (index entries) they
// returned. The per-step breakdown is what lets plan.Explain print
// estimated versus actual costs side by side (the type lives in plan so
// Explain can consume it without importing exec).
type StepAccess = plan.StepAccess

// Result is a query answer plus the access statistics of the evaluation.
type Result struct {
	// Cols are the output column names (empty for Boolean queries).
	Cols []string
	// Tuples are the distinct answer tuples, sorted. For a Boolean query a
	// single empty tuple means "true" and no tuples means "false".
	Tuples []value.Tuple
	// Stats are the storage accesses the evaluation performed.
	Stats storage.Stats
	// DQSize is |D_Q|: the number of distinct database tuples the
	// evaluation fetched (witnesses, deduplicated per relation position).
	DQSize int64
	// StepStats aligns with the plan's fetch steps, VerifyStats with its
	// verification steps (verifications after an empty table short-circuits
	// the evaluation report zero access). Both are nil for trivial plans.
	StepStats   []StepAccess
	VerifyStats []StepAccess
	// Limit echoes the early-termination bound the evaluation ran under
	// (0: none); Limited reports whether it actually stopped there rather
	// than by exhausting the bounded fetch.
	Limit   int
	Limited bool
	// Trace is the evaluation's span tree when the run was traced
	// (StreamOptions.Trace), nil otherwise. plan.Explain renders it.
	Trace *obs.Trace
}

// Bool interprets a Boolean query's result.
func (r *Result) Bool() bool { return len(r.Tuples) > 0 }

// Run executes a bounded plan against a store: a sealed database or a
// pinned live snapshot. The store must have indexes built for every
// constraint the plan uses (storage.BuildIndexes with the access schema
// the plan was generated under, or a live store over such a base).
//
// Run is a thin consumer of the streaming core: it drains an unbatched
// Stream, whose single growth wave, in-order verification with the
// empty-table short-circuit, and one-shot join execute exactly the
// classic three-phase evalDQ — answers, statistics and |D_Q| are
// byte-identical to the historical materializing path.
func Run(p *plan.Plan, db Store) (*Result, error) {
	return OpenStream(p, db, StreamOptions{BatchSize: Unbatched}).Drain()
}

// run is the per-evaluation state of one stream. It counts its own
// accesses (lookups, fetched) instead of diffing the database's shared
// counters, so Result.Stats stays exact even when many evaluations run
// concurrently against one database.
type run struct {
	p  *plan.Plan
	db Store

	// metrics, when non-nil, receives probe/fetch counters and per-shard
	// probe latencies as they happen (nil-safe instruments inside).
	metrics *obs.ExecMetrics
	// reads, when non-nil, records the version words of everything the run
	// reads from versioned, which is db (StreamOptions.Reads).
	reads     *ReadSet
	versioned Versioned

	cols        []string
	stepStats   []StepAccess
	verifyStats []StepAccess
	lookups     int64
	fetched     int64
	// dqSize is |D_Q| as of the last settle (Stream.settle).
	dqSize int64
}
