// Package bcq is a Go implementation of "Bounded Conjunctive Queries"
// (Cao, Fan, Wo, Yu — PVLDB 7(12), 2014): deciding whether an SPC
// (conjunctive) query can be answered by accessing a bounded amount of
// data under an access schema, and actually answering it that way.
//
// An access schema is a set of access constraints X → (Y, N): for every
// X-value there are at most N distinct corresponding Y-values, retrievable
// through an index at a cost independent of the database size. Under such
// a schema, many practical queries are effectively bounded — answerable
// exactly from a fraction of the data whose size depends only on the query
// and the schema, never on |D|.
//
// The package is a facade over the internal implementation:
//
//	cat, acc, _ := bcq.ParseDDL(schemaText)   // relations + access constraints
//	q, _ := bcq.ParseQuery(queryText, cat)    // SPC query (SQL-ish surface syntax)
//	a, _ := bcq.Analyze(cat, q, acc)
//	a.Bounded()                // Theorem 3 / algorithm BCheck
//	a.EffectivelyBounded()     // Theorem 4 / algorithm EBCheck
//	a.DominatingParameters(α)  // Section 4.3 / algorithm findDPh
//	p, _ := a.Plan()           // Section 5.1 / algorithm QPlan
//	res, _ := bcq.Execute(p, db) // evalDQ: bounded evaluation
//
// For serving workloads, the prepared-query engine folds the whole
// pipeline behind a plan cache and the bounded executor:
//
//	eng, _ := bcq.NewEngine(cat, acc, db, bcq.EngineOptions{})
//	p, _ := eng.Prepare("select ... where album_id = ? and user_id = ?")
//	res, _ := p.Exec(bcq.Int(3), bcq.Int(74))  // no re-planning, bounded fetches
//
// Databases live in an in-memory storage engine (NewDatabase, Insert,
// BuildIndexes); the executors report how many tuples they touched, so the
// boundedness guarantee is observable.
//
// Index construction seals the database; to keep serving exact, bounded
// answers while ingesting writes, wrap it in a sharded database — one
// shard for a single store. It applies Inserts/Deletes incrementally
// (copy-on-write on the touched index groups, no rebuilds), rejects a
// batch that would break D |= A — so every cached plan stays sound — and
// publishes each batch as a new immutable cut; readers pin a cut and
// never block writers:
//
//	ss, _ := bcq.NewShardedDatabase(db, acc, bcq.ShardOptions{Shards: 1})
//	eng, _ := bcq.NewShardedEngine(ss, bcq.EngineOptions{})
//	p, _ := eng.Prepare("select ... where user_id = ?")
//	ss.Apply([]bcq.LiveOp{bcq.InsertOp("friends", t)})  // atomic batch
//	res, _ := p.Exec(bcq.Int(74))  // pins the cut published now
//
// To scale past one writer and one machine's worth of contention, raise
// the shard count: access constraints double as shard keys, so each
// relation is hash-partitioned on a constraint's X-attributes, probes
// scatter-gather to the shards owning their index groups (answers stay
// byte-identical to a single store), and writes stage shard-parallel and
// commit on every shard or none.
//
// With ShardOptions.Dir set every batch is logged and fsynced before it
// publishes, Compact checkpoints, and OpenShardedDatabase recovers the
// directory after a crash (examples/durable).
//
// See the examples/ directory (examples/streaming for writes under
// serving, examples/sharded for scale-out) and DESIGN.md for the full
// system map.
package bcq

import (
	"io"
	"time"

	"bcq/internal/baseline"
	"bcq/internal/core"
	"bcq/internal/engine"
	"bcq/internal/exec"
	"bcq/internal/live"
	"bcq/internal/obs"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/serve"
	"bcq/internal/shard"
	"bcq/internal/spc"
	"bcq/internal/stats"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// Re-exported value types.
type (
	// Value is a scalar database value (null, int64 or string).
	Value = value.Value
	// Tuple is an ordered list of values.
	Tuple = value.Tuple
)

// Null is the null value; Int and Str construct scalars.
var Null = value.Null

// Int returns an integer value.
func Int(i int64) Value { return value.Int(i) }

// Str returns a string value.
func Str(s string) Value { return value.Str(s) }

// ParseValue parses a literal ("null", 42, 'text').
func ParseValue(s string) (Value, error) { return value.Parse(s) }

// Re-exported schema types.
type (
	// Relation is one relation schema.
	Relation = schema.Relation
	// Catalog is a relational schema (a set of relation schemas).
	Catalog = schema.Catalog
	// AccessConstraint is one constraint X → (Y, N) on a relation.
	AccessConstraint = schema.AccessConstraint
	// AccessSchema is a set of access constraints.
	AccessSchema = schema.AccessSchema
)

// NewRelation builds a relation schema.
func NewRelation(name string, attrs ...string) (*Relation, error) {
	return schema.NewRelation(name, attrs...)
}

// NewCatalog builds a catalog from relation schemas.
func NewCatalog(rels ...*Relation) (*Catalog, error) { return schema.NewCatalog(rels...) }

// NewAccessConstraint builds one access constraint X → (Y, N).
func NewAccessConstraint(rel string, x, y []string, n int64) (AccessConstraint, error) {
	return schema.NewAccessConstraint(rel, x, y, n)
}

// NewAccessSchema builds an access schema.
func NewAccessSchema(constraints ...AccessConstraint) (*AccessSchema, error) {
	return schema.NewAccessSchema(constraints...)
}

// ParseDDL parses the schema description language:
//
//	relation in_album(photo_id, album_id)
//	constraint in_album: (album_id) -> (photo_id, 1000)
func ParseDDL(src string) (*Catalog, *AccessSchema, error) { return schema.ParseDDL(src) }

// Re-exported query types.
type (
	// Query is an SPC (conjunctive) query.
	Query = spc.Query
	// AttrRef identifies an attribute occurrence S_i[A] of a query.
	AttrRef = spc.AttrRef
)

// ParseQuery parses the SQL-ish SPC surface syntax:
//
//	select t1.photo_id from in_album as t1, tagging as t3
//	where t1.album_id = 'a0' and t1.photo_id = t3.photo_id
//
// Placeholders ("attr = ?") declare parameterized-query slots.
func ParseQuery(src string, cat *Catalog) (*Query, error) { return spc.Parse(src, cat) }

// Analysis bundles a validated query with its access schema; all four of
// the paper's decision algorithms hang off it.
type Analysis struct {
	an *core.Analysis
}

// Re-exported analysis result types.
type (
	// BoundedResult answers Bnd(Q, A).
	BoundedResult = core.BoundedResult
	// EBResult answers EBnd(Q, A).
	EBResult = core.EBResult
	// DPResult answers DP/MDP(Q, A).
	DPResult = core.DPResult
	// MBoundedResult answers the M-boundedness question (Section 5.2).
	MBoundedResult = core.MBoundedResult
)

// Analyze validates the query against the catalog and prepares the shared
// machinery (Σ_Q closure, actualized constraints).
func Analyze(cat *Catalog, q *Query, a *AccessSchema) (*Analysis, error) {
	an, err := core.NewAnalysis(cat, q, a)
	if err != nil {
		return nil, err
	}
	return &Analysis{an: an}, nil
}

// Bounded decides whether the query is bounded under the access schema
// (algorithm BCheck, O(|Q|(|A|+|Q|))).
func (a *Analysis) Bounded() BoundedResult { return a.an.BCheck() }

// EffectivelyBounded decides whether the query is effectively bounded
// (algorithm EBCheck, O(|Q|(|A|+|Q|))).
func (a *Analysis) EffectivelyBounded() EBResult { return a.an.EBCheck() }

// DominatingParameters searches for a minimum set of parameters whose
// instantiation makes the query effectively bounded (heuristic findDPh;
// the exact problem is NP-complete).
func (a *Analysis) DominatingParameters(alpha float64) DPResult { return a.an.FindDPh(alpha) }

// ExactMinDominatingParameters solves MDP exactly by exhaustive search;
// exponential, gated by maxCandidates (0 = default 20).
func (a *Analysis) ExactMinDominatingParameters(alpha float64, maxCandidates int) (DPResult, error) {
	return a.an.ExactMinDP(alpha, maxCandidates)
}

// MBounded decides effective M-boundedness exactly (NP-complete; gated by
// maxActs, 0 = default 18) and reports the optimal fetch bound.
func (a *Analysis) MBounded(m int64, maxActs int) (MBoundedResult, error) {
	return a.an.ExactMBounded(m, maxActs)
}

// Re-exported planning types.
type (
	// Plan is a bounded query plan.
	Plan = plan.Plan
	// ExplainOptions tunes Plan.ExplainOpts: cost estimates and/or the
	// actual per-step access counts of a finished execution.
	ExplainOptions = plan.ExplainOptions
	// PlanActuals carries an execution's per-step access counts into
	// ExplainOptions (build one from Result.StepStats / VerifyStats).
	PlanActuals = plan.Actuals
	// StepAccess is one plan operation's actual probe and fetch counts.
	StepAccess = plan.StepAccess
)

// Plan generates a bounded query plan (algorithm QPlan). It fails with a
// *plan.NotEffectivelyBoundedError when the query is not effectively
// bounded.
func (a *Analysis) Plan() (*Plan, error) { return plan.QPlan(a.an) }

// OptimizedPlan generates a cost-based bounded query plan: same
// guarantees as Plan, but the fetch order and retrieval witnesses are
// chosen to minimize expected tuples fetched under the given cardinality
// statistics (nil falls back to the declared bounds N). Obtain a
// snapshot from Database.CardStats, ShardedDatabase.CardStats or
// Engine.CardStats.
func (a *Analysis) OptimizedPlan(cs *CardStats) (*Plan, error) { return plan.Optimize(a.an, cs) }

// GreedyPlan generates a cost-based bounded query plan using only the
// greedy ordering heuristic — no branch-and-bound search — so planning
// latency stays flat as query shapes grow. Same soundness guarantees as
// OptimizedPlan; the chosen order may fetch more tuples. It is the order
// OptimizedPlan falls back to past its atom limit or search budget.
func (a *Analysis) GreedyPlan(cs *CardStats) (*Plan, error) { return plan.OptimizeGreedy(a.an, cs) }

// PlanTier identifies how a plan's fetch order was chosen: naive
// derivation order, the greedy heuristic, or the full optimizer.
type PlanTier = plan.Tier

// Plan tier values (Plan.Tier).
const (
	TierNaive     = plan.TierNaive
	TierGreedy    = plan.TierGreedy
	TierOptimized = plan.TierOptimized
)

// AnnotateEstimates fills a plan's per-step and total cost estimates
// from cardinality statistics without changing its structure — for
// rendering naive and cost-based plans on one scale.
func AnnotateEstimates(p *Plan, cs *CardStats) { plan.AnnotateEstimates(p, cs) }

// Re-exported cardinality-statistics types: the cost model's input,
// produced by every store and maintained incrementally through live
// ingest and sharded commits.
type (
	// CardStats is one store's cardinality snapshot (per-relation rows,
	// per-constraint index shape).
	CardStats = stats.Snapshot
	// RelCard is one relation's cardinality statistics.
	RelCard = stats.RelCard
	// ACCard is one access constraint's observed index shape.
	ACCard = stats.ACCard
)

// Re-exported storage types.
type (
	// Database is the in-memory storage engine.
	Database = storage.Database
	// Stats counts storage accesses.
	Stats = storage.Stats
)

// NewDatabase creates an empty database over a catalog.
func NewDatabase(cat *Catalog) *Database { return storage.NewDatabase(cat) }

// ErrSealed matches (errors.Is) inserts rejected because the database was
// sealed by index construction; mutate through a sharded database instead.
var ErrSealed = storage.ErrSealed

// Store is the read surface bounded evaluation runs against: a sealed
// *Database or a pinned *ShardedView.
type Store = exec.Store

// Result is a bounded-evaluation answer with access statistics.
type Result = exec.Result

// Execute runs a bounded plan against a database (evalDQ). The database
// must have indexes built for the plan's access schema
// (db.BuildIndexes(acc)).
func Execute(p *Plan, db *Database) (*Result, error) { return exec.Run(p, db) }

// ExecuteOn is Execute against any store — in particular a pinned
// sharded view, which evaluates in full isolation from concurrent writes.
func ExecuteOn(p *Plan, st Store) (*Result, error) { return exec.Run(p, st) }

// Re-exported streaming-execution types.
type (
	// Stream is a pull-based bounded answer stream: Next yields answers
	// as the fetch/verify fixpoint produces them, holding O(batch)
	// per-request state instead of materializing Q(D). Every emitted
	// tuple is a true answer (candidate growth is monotone), and a
	// drained stream has produced exactly Q(D). Next(buf...) writes an
	// answer into buf when it has room, so a consumer that is done with
	// each answer before pulling the next reuses one tuple throughout;
	// Next() gives each answer a tuple of its own. Streams are
	// single-goroutine; Execute and ExecuteOn are thin consumers
	// of this same core.
	Stream = exec.Stream
	// StreamOptions tunes a stream: Limit > 0 stops fetching as soon as
	// that many distinct answers exist (early termination); BatchSize
	// sets the per-wave fetch granularity.
	StreamOptions = exec.StreamOptions
)

// ExecuteStream opens a pull-based answer stream for a bounded plan over
// any store. No data is fetched until the first Next call.
func ExecuteStream(p *Plan, st Store, opts StreamOptions) *Stream {
	return exec.OpenStream(p, st, opts)
}

// Re-exported prepared-query engine types.
type (
	// Engine is a long-lived prepared-query service over one database:
	// parse → analyze → plan runs once per query shape (LRU plan cache),
	// bounded execution runs per request.
	Engine = engine.Engine
	// Prepared is a cached query plan ready for repeated execution.
	Prepared = engine.Prepared
	// EngineOptions tunes the plan cache and the instruments.
	EngineOptions = engine.Options
	// EngineStats exposes the engine counters (prepares, cache hits,
	// misses, evictions, re-plans, executions).
	EngineStats = engine.Stats
)

// NewEngine builds a prepared-query engine over a loaded database. It
// builds any missing access indexes (verifying D |= A) and seals the
// database; afterwards the engine may serve queries from any number of
// goroutines.
func NewEngine(cat *Catalog, acc *AccessSchema, db *Database, opts EngineOptions) (*Engine, error) {
	return engine.New(cat, acc, db, opts)
}

// Re-exported write types.
type (
	// LiveOp is one write operation of an atomic batch.
	LiveOp = live.Op
	// LiveIngestStats counts a sharded database's write-side activity.
	LiveIngestStats = live.IngestStats
)

// ErrLiveBound matches (errors.Is) writes rejected because they would
// push an access-constraint group past its bound, breaking D |= A.
var ErrLiveBound = live.ErrBound

// ErrLiveNoSuchTuple matches (errors.Is) deletes whose target tuple has
// no live occurrence.
var ErrLiveNoSuchTuple = live.ErrNoSuchTuple

// InsertOp builds an insert op for ShardedDatabase.Apply.
func InsertOp(rel string, t Tuple) LiveOp { return live.Insert(rel, t) }

// DeleteOp builds a delete op for ShardedDatabase.Apply.
func DeleteOp(rel string, t Tuple) LiveOp { return live.Delete(rel, t) }

// Re-exported sharding types.
type (
	// ShardedDatabase is the writable store: one database partitioned
	// into P ≥ 1 shards, each its own live store (epoch-versioned
	// snapshots, incremental index maintenance, writes checked against
	// the access schema so D |= A stays invariant). Probes route to the
	// shard owning their index group, writes stage shard-parallel and
	// commit atomically, and scatter-gather execution is byte-identical
	// to a single store.
	ShardedDatabase = shard.Store
	// ShardedView is one published cut — an immutable, consistent set of
	// every shard's snapshot that bounded evaluation runs against (it is
	// a Store). Pinning one is an atomic load.
	ShardedView = shard.View
	// ShardOptions tunes a sharded database (partition count, durable
	// directory).
	ShardOptions = shard.Options
)

// NewShardedDatabase partitions a loaded database into opts.Shards
// shards; at Shards: 1 the one shard takes db as it stands, builds its
// missing access indexes (verifying D |= A) and seals it. Each relation is hash-partitioned on the X-attributes of an
// anchor access constraint (one whose X every other constraint on the
// relation contains), which keeps every index group whole on one shard —
// the property that makes sharded execution exact and per-shard admission
// checking globally sound. Relations without such an anchor (or with an
// empty one) hash on the empty key and so sit whole on one shard;
// relations without constraints hash on all their attributes.
func NewShardedDatabase(db *Database, acc *AccessSchema, opts ShardOptions) (*ShardedDatabase, error) {
	return shard.New(db, acc, opts)
}

// NewShardedEngine builds a prepared-query engine over a sharded
// database: every execution pins one consistent epoch vector across all
// shards and fans its bounded probes out shard by shard, while ingest
// scales with the shard count.
func NewShardedEngine(ss *ShardedDatabase, opts EngineOptions) (*Engine, error) {
	return engine.NewSharded(ss, opts)
}

// ShardRecovery reports what OpenShardedDatabase did to bring a durable
// sharded store back: what its one log replayed, skipped and cut.
type ShardRecovery = shard.Recovery

// ErrShardMismatch matches (errors.Is) an OpenShardedDatabase whose
// ShardOptions.Shards disagrees with the directory's manifest (leave
// Shards zero to accept the manifest's count).
var ErrShardMismatch = shard.ErrShardMismatch

// OpenShardedDatabase recovers a durable sharded database: each shard
// loads its newest valid checkpoint, in parallel, the manifest restores
// the partition placements, and the store's one WAL replays its tail,
// each sub-batch on its shard, so a batch or an extension comes back on
// every shard it committed on or on none. A directory an older build
// wrote, with a WAL per shard, is migrated to the one log. Pair it with
// ShardOptions.Dir on NewShardedDatabase, which seeds a durable store
// from loaded data; Close checkpoints every shard so a clean restart
// replays zero records.
func OpenShardedDatabase(dir string, cat *Catalog, acc *AccessSchema, opts ShardOptions) (*ShardedDatabase, *ShardRecovery, error) {
	return shard.Open(dir, cat, acc, opts)
}

// Re-exported serving-layer types.
type (
	// QueryServer is the HTTP/JSON serving layer over an engine: a worker
	// pool with backpressure and per-request deadlines multiplexes
	// concurrent clients onto the bounded executor, and a result cache
	// serves hot queries without re-execution — never stale, because every
	// live write stamps the version words of the index groups it rewrote
	// before it publishes, and an answer is served only while the words of
	// the groups it read have not moved. Endpoints: /query, /prepare, /ingest,
	// /stats, /healthz. See cmd/bqserve and examples/serving.
	QueryServer = serve.Server
	// ServeOptions tunes the worker pool, queue bound, default deadline,
	// result cache, and the ingest/metrics wiring.
	ServeOptions = serve.Options
	// ServeCacheStats is the result cache's hit/miss counter snapshot.
	ServeCacheStats = serve.CacheStats
	// StoreMetrics is the observability surface /stats reads; Database
	// and ShardedDatabase both satisfy it.
	StoreMetrics = serve.StoreMetrics
)

// NewQueryServer builds the serving layer over an engine. Wire
// ServeOptions.Ingest to the sharded store's Apply to enable /ingest, and
// ServeOptions.Metrics to the store for /stats.
func NewQueryServer(eng *Engine, opts ServeOptions) (*QueryServer, error) {
	return serve.New(eng, opts)
}

// Re-exported observability types (internal/obs): a dependency-free
// metrics registry with Prometheus text exposition, per-query span
// tracing, and a sampling slow-query log. Share one registry across the
// engine (EngineOptions.Metrics), the store (Instrument) and the server
// (ServeOptions.Obs) so a single GET /metrics scrape covers request
// latency, plan/result caches, executor waves and probes, per-shard
// fan-out, ingest throughput and epoch freshness.
type (
	// MetricsRegistry holds metric families and renders them in
	// Prometheus text exposition format (Handler serves GET /metrics).
	MetricsRegistry = obs.Registry
	// Observer bundles the serving layer's observability handles.
	Observer = obs.Observer
	// Trace is one request's span tree; mint with NewTrace, render with
	// Tree/JSON, or let Prepared.ExecTrace record into it.
	Trace = obs.Trace
	// TraceSpan is one timed operation in a trace.
	TraceSpan = obs.Span
	// SlowQueryLog records sampled slow queries as JSON lines.
	SlowQueryLog = obs.SlowLog
	// TimeSeries retains windowed metric history — counter rates, gauge
	// readings, delta-window histogram quantiles — in fixed-size rings
	// (GET /debug/timeseries).
	TimeSeries = obs.TimeSeries
	// TimeSeriesOptions tunes the sampler's interval, window and series cap.
	TimeSeriesOptions = obs.TimeSeriesOptions
	// TraceRecorder tail-samples span trees: complete traces are retained
	// only for slow, errored or outlier-vs-rolling-p99 queries
	// (GET /debug/traces/{id}).
	TraceRecorder = obs.TraceRecorder
	// TraceRecorderOptions tunes the recorder's capacity and retention
	// criteria.
	TraceRecorderOptions = obs.TraceRecorderOptions
	// RetainedTrace is one trace the recorder kept: metadata, retention
	// reasons and the span tree.
	RetainedTrace = obs.RetainedTrace
	// SLOMonitor evaluates latency and error SLOs over short and long
	// burn-rate windows; its verdict folds into GET /healthz.
	SLOMonitor = obs.SLO
	// SLOOptions declares the SLO thresholds, budgets and windows.
	SLOOptions = obs.SLOOptions
	// SLOVerdict is one burn-rate evaluation: degraded or not, with both
	// windows' rates per SLO.
	SLOVerdict = obs.SLOVerdict
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTrace builds a trace with the given ID ("" mints one) and root span
// name.
func NewTrace(id, rootName string) *Trace { return obs.NewTrace(id, rootName) }

// NewSlowQueryLog builds a slow-query log writing JSON lines to w:
// queries at or above threshold qualify, and 1-in-sampleN qualifying
// queries are written (sampleN ≤ 1 writes every one).
func NewSlowQueryLog(w io.Writer, threshold time.Duration, sampleN int) *SlowQueryLog {
	return obs.NewSlowLog(w, threshold, sampleN)
}

// NewSlowQueryLogFile builds a slow-query log appending to path,
// rotating by rename-and-truncate (path → path+".1") when the file
// would exceed maxBytes (0 = never rotate), so on-disk size stays
// bounded at roughly 2× maxBytes.
func NewSlowQueryLogFile(path string, threshold time.Duration, sampleN int, maxBytes int64) (*SlowQueryLog, error) {
	return obs.NewSlowLogFile(path, threshold, sampleN, maxBytes)
}

// NewTimeSeries builds a metric-history sampler over a registry; Start
// launches its ticker, Stop ends it.
func NewTimeSeries(reg *MetricsRegistry, opts TimeSeriesOptions) *TimeSeries {
	return obs.NewTimeSeries(reg, opts)
}

// NewTraceRecorder builds a tail-sampling trace ring. Wire it into
// EngineOptions.Recorder (feeds the rolling p99) and Observer.Traces
// (serves /debug/traces).
func NewTraceRecorder(opts TraceRecorderOptions) *TraceRecorder {
	return obs.NewTraceRecorder(opts)
}

// NewSLOMonitor builds a burn-rate monitor. Wire it into
// Observer.SLO so the serving layer records work-endpoint requests and
// /healthz carries the verdict.
func NewSLOMonitor(opts SLOOptions) *SLOMonitor { return obs.NewSLO(opts) }

// BaselineResult is a full-data evaluation answer.
type BaselineResult = baseline.Result

// BaselineOptions configures the conventional evaluators.
type BaselineOptions = baseline.Options

// ExecuteBaseline evaluates the query over the full database with a
// conventional hash join — the comparison point for bounded evaluation.
func ExecuteBaseline(a *Analysis, db *Database, opts BaselineOptions) (*BaselineResult, error) {
	return baseline.HashJoin(a.an.Closure, db, opts)
}

// ExecuteBaselineIndexLoop evaluates with an index-nested-loop join
// (the paper's "MySQL with the indices of A" stand-in).
func ExecuteBaselineIndexLoop(a *Analysis, db *Database, opts BaselineOptions) (*BaselineResult, error) {
	return baseline.IndexLoop(a.an.Closure, db, opts)
}
