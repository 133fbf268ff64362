// Package engine is the prepared-query service layer of the reproduction:
// a long-lived Engine bound to one catalog, access schema and indexed
// database, serving many queries from many goroutines.
//
// The paper's guarantee (Cao–Fan–Wo–Yu, PVLDB 2014) is that a bounded
// plan touches a constant amount of data regardless of |D| — but the
// one-shot pipeline re-parses, re-analyzes and re-plans every query, so
// at service scale the constant factors are dominated by the analysis
// path, not the data path. The engine separates the two:
//
//   - Prepare runs parse → analyze → plan.Optimize (the cost-based
//     planner) once per query *shape* and memoizes the result in a CLOCK
//     plan cache keyed by a normalized query fingerprint. Parameterized templates ("attr = ?") are planned
//     once against opaque sentinel constants; the plan's structure is
//     value-independent, so it is reusable for every argument vector.
//     In front of the plan cache a text memo remembers the parse itself
//     (text → query + fingerprint), so a repeated text reaches its plan
//     in two map lookups.
//   - Prepared.Exec binds the placeholder arguments into the cached
//     plan's seeds and runs bounded evaluation — the only per-request
//     work is the (bounded) data access itself, run on the caller's
//     goroutine.
//
// Engine statistics (prepares, cache hits/misses, evictions, executions)
// make the plans-exactly-once behaviour observable.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bcq/internal/clock"
	"bcq/internal/exec"
	"bcq/internal/live"
	"bcq/internal/obs"
	"bcq/internal/schema"
	"bcq/internal/shard"
	"bcq/internal/spc"
	"bcq/internal/stats"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// Source yields the store an evaluation runs against. A sealed database
// is a constant source; a live store yields its current snapshot, so
// every execution pins one immutable epoch — readers never block
// writers, and per-result access statistics stay exact under concurrent
// ingest.
//
// A source also reports the access schema queries are analyzed under
// and a monotone schema version that advances whenever the schema may
// have changed. Preparation reads both; cached preparation errors are
// tagged with the version and retried once it has advanced (a live
// ExtendAccess can make a previously rejected shape answerable). Data
// epochs deliberately do not advance it: a boundedness verdict depends
// only on (query, schema), so ingest churn must not defeat the error
// cache.
type Source interface {
	View() exec.Store
	// Base is the sealed database behind the store, for callers that want
	// the data itself (baseline comparisons, per-relation statistics) and
	// never for serving. A live store answers with the base its current
	// epoch overlays, so nothing here pins a base a Compact has replaced;
	// a sharded store freezes its current view.
	Base() *storage.Database
	// Access is the current access schema (live stores can extend it).
	Access() *schema.AccessSchema
	// Version is a monotone counter that advances on every schema
	// change. Implementations must publish the new schema before
	// advancing it, so a version-then-schema reader can never pair the
	// new version with the old schema.
	Version() uint64
	// CardStats is the store's current cardinality statistics, whole: what
	// /stats and Engine.CardStats report. Planning never builds it.
	CardStats() stats.Snapshot
	// ACCard is one constraint's entry of CardStats (ok false when
	// CardStats would lack it), read without building the snapshot: what
	// the planner costs a plan against (a Source is a plan.Cards) and the
	// plan cache's drift check, on the first cache-hit Prepare of every
	// plan after each Epoch advance. Keep it lock-free and allocation-free.
	ACCard(key string) (stats.ACCard, bool)
	// Epoch is a cheap, monotone token of the store's data version — one
	// or two atomic loads, no formatting: it advances with every commit,
	// compaction and schema extension (on a sharded store it is the
	// published cut's token, View.Epoch). Implementations must publish a
	// change's statistics before advancing it, so an epoch-then-statistics
	// reader can never pair moved statistics with a token that will not
	// move again. Not a cache key: the result cache keeps answers by
	// version words.
	Epoch() uint64
	// NumShards is the store's partition count: 1 for unsharded stores.
	// Readiness reporting (/healthz) reads it without pinning a view.
	NumShards() int
}

// dbSource serves a sealed database forever: constant data, constant
// schema, version 0, and — the data being immutable — cardinality
// statistics computed once at engine construction.
type dbSource struct {
	db  *storage.Database
	acc *schema.AccessSchema
	cs  stats.Snapshot
}

func (s dbSource) View() exec.Store             { return s.db }
func (s dbSource) Base() *storage.Database      { return s.db }
func (s dbSource) Access() *schema.AccessSchema { return s.acc }
func (s dbSource) Version() uint64              { return 0 }
func (s dbSource) CardStats() stats.Snapshot    { return s.cs }
func (s dbSource) Epoch() uint64                { return 0 }
func (s dbSource) NumShards() int               { return 1 }

func (s dbSource) ACCard(key string) (stats.ACCard, bool) { return s.cs.ACCard(key) }

// liveSource pins the live store's current epoch per evaluation.
//
// Deprecated: it serves only NewLive; both go once the benchmark harness
// builds every workload's store with shard.New.
type liveSource struct{ ls *live.Store }

func (s liveSource) View() exec.Store             { return s.ls.Snapshot() }
func (s liveSource) Base() *storage.Database      { return s.ls.Base() }
func (s liveSource) Access() *schema.AccessSchema { return s.ls.Access() }
func (s liveSource) Version() uint64              { return s.ls.SchemaVersion() }
func (s liveSource) CardStats() stats.Snapshot    { return s.ls.CardStats() }
func (s liveSource) Epoch() uint64                { return s.ls.Epoch() }
func (s liveSource) NumShards() int               { return 1 }

func (s liveSource) ACCard(key string) (stats.ACCard, bool) { return s.ls.ACCard(key) }

// shardSource pins the sharded store's published cut per evaluation.
type shardSource struct{ ss *shard.Store }

func (s shardSource) View() exec.Store             { return s.ss.View() }
func (s shardSource) Access() *schema.AccessSchema { return s.ss.Access() }
func (s shardSource) Version() uint64              { return s.ss.SchemaVersion() }
func (s shardSource) CardStats() stats.Snapshot    { return s.ss.CardStats() }
func (s shardSource) NumShards() int               { return s.ss.NumShards() }
func (s shardSource) Epoch() uint64                { return s.ss.View().Epoch() }

func (s shardSource) ACCard(key string) (stats.ACCard, bool) { return s.ss.ACCard(key) }

// Base freezes the current view (O(|D|)); a freeze fails only on a
// shard-store bug, which panics, since Engine.Database has no error.
func (s shardSource) Base() *storage.Database {
	db, err := s.ss.Base()
	if err != nil {
		panic(err)
	}
	return db
}

// The views a live and a sharded source pin carry version words, which is
// what lets a result cache keep an answer across writes that touch
// nothing it read; and every source's view renders its epoch key.
var (
	_ exec.Versioned = (*live.Snapshot)(nil)
	_ exec.Versioned = (*shard.View)(nil)

	_ epochKeyed = (*storage.Database)(nil)
	_ epochKeyed = (*live.Snapshot)(nil)
	_ epochKeyed = (*shard.View)(nil)
)

// epochKeyed is a view that renders the data version it serves.
type epochKeyed interface{ AppendEpochKey(dst []byte) []byte }

// Options tunes an engine.
type Options struct {
	// PlanCacheSize caps the CLOCK plan cache (≤ 0 means the default 128).
	PlanCacheSize int
	// Parallelism is read by nothing: every probe runs on the request's
	// goroutine.
	//
	// Deprecated: leave it unset; the field is deleted once no caller
	// sets it.
	Parallelism int
	// PlanMode is read by nothing: every cold prepare runs the cost-based
	// optimizer.
	//
	// Deprecated: leave it unset; the field is deleted once no caller
	// sets it.
	PlanMode PlanMode
	// Metrics, when non-nil, instruments the engine on that registry:
	// prepare latency by outcome, plan-cache counters, executor probe and
	// wave metrics. One registry should back at most one engine — the
	// counter families are unlabeled, so two engines would register the
	// first one's closures for both. Nil disables instrumentation at the
	// cost of one nil check per site.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives every execution's latency — the
	// feed behind the tail-sampling recorder's rolling p99, so its
	// outlier bar reflects all executions, not just the ones a serving
	// layer happened to retain. Nil costs one nil check per execution.
	Recorder *obs.TraceRecorder
}

// PlanMode is read by nothing.
//
// Deprecated: every cold prepare runs the cost-based optimizer; the type
// is deleted once no caller names it.
type PlanMode int

// PlanTiered is read by nothing.
//
// Deprecated: see PlanMode.
const PlanTiered PlanMode = 2

// DefaultPlanCacheSize is the plan-cache capacity when Options leaves it
// unset.
const DefaultPlanCacheSize = 128

// Stats is a snapshot of the engine counters.
type Stats struct {
	// Prepares counts Prepare/PrepareQuery calls.
	Prepares int64
	// CacheHits counts prepares answered from the plan cache (including
	// callers that waited for a concurrent preparation of the same
	// fingerprint instead of planning themselves).
	CacheHits int64
	// CacheMisses counts prepares that ran the analyze→plan pipeline.
	CacheMisses int64
	// Evictions counts plan-cache entries (successful plans) displaced by
	// the CLOCK policy. Error entries live in their own cache and never
	// displace plans; their evictions are not counted.
	Evictions int64
	// StaleRetries counts prepares that re-ran the analysis because the
	// cached error predated the store's current schema/epoch version.
	StaleRetries int64
	// Replans counts cached plans discarded and rebuilt because the
	// store's observed cardinalities drifted past the re-planning
	// threshold (roughly 2× on some constraint the plan probes) since the
	// plan was generated.
	Replans int64
	// Execs counts Prepared.Exec calls.
	Execs int64
	// Upgrades is always 0.
	//
	// Deprecated: plans are never upgraded; the field is deleted once no
	// caller reads it.
	Upgrades int64 `json:"-"`
	// UpgradesDiscarded is always 0.
	//
	// Deprecated: see Upgrades.
	UpgradesDiscarded int64 `json:"-"`
}

// Engine is a prepared-query service over one database. It is safe for
// concurrent use: the plan cache is guarded by a mutex, preparation of a
// given fingerprint happens exactly once even under concurrent Prepare
// calls, and execution relies on the storage layer's sealed-database
// contract.
type Engine struct {
	cat *schema.Catalog
	// src is what executions read, and where the current access schema,
	// version and base database come from.
	src Source

	mu sync.Mutex
	// cache holds successful plans; errs holds preparation errors, each
	// tagged with the source version it was observed at. Separate caches
	// so a burst of failing shapes can never displace hot valid plans.
	cache  *clock.Cache[*cacheEntry]
	errs   *clock.Cache[*cacheEntry]
	flight map[string]*inflight
	// texts memoises the pure step in front of the plan cache: query text
	// → parsed query and fingerprint, so a repeated text is never parsed
	// or re-rendered. It shares the plan cache's capacity and mutex and
	// decides nothing: every text still goes through lookupOrBuild.
	texts *clock.Cache[parsedText]

	// buildHook, when set (tests only), runs at the start of every
	// analyze→plan pipeline, outside the engine mutex — the observation
	// point proving that preparations of distinct fingerprints overlap.
	buildHook func(fp string)

	// metrics instruments (all nil when Options.Metrics was nil): prepare
	// latency split by outcome, and the executor's pre-resolved bundle,
	// injected into every Run/Stream the engine starts.
	metrics     *obs.Registry
	execMetrics *obs.ExecMetrics
	recorder    *obs.TraceRecorder
	prepHit     *obs.Histogram
	prepMiss    *obs.Histogram
	prepErr     *obs.Histogram

	prepares     atomic.Int64
	hits         atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	staleRetries atomic.Int64
	replans      atomic.Int64
	execs        atomic.Int64
}

// inflight is a preparation in progress; concurrent prepares of the same
// fingerprint wait on it instead of planning again. version is the
// source version the builder observed: a waiter that observed a newer
// one re-runs the sequence on failure rather than adopting a verdict
// that may predate a schema extension.
type inflight struct {
	done    chan struct{}
	version uint64
	prep    *Prepared
	err     error
}

// New builds an engine over a loaded database. It verifies the access
// schema against the catalog, builds any missing access indexes
// (verifying D |= A in the process) and seals the database, after which
// the engine — and any number of goroutines — may serve queries from it.
func New(cat *schema.Catalog, acc *schema.AccessSchema, db *storage.Database, opts Options) (*Engine, error) {
	if cat == nil || acc == nil || db == nil {
		return nil, fmt.Errorf("engine: catalog, access schema and database are all required")
	}
	if err := acc.Validate(cat); err != nil {
		return nil, fmt.Errorf("engine: access schema does not match catalog: %w", err)
	}
	if err := db.EnsureIndexes(acc); err != nil {
		return nil, fmt.Errorf("engine: indexing database: %w", err)
	}
	return assemble(cat, dbSource{db: db, acc: acc, cs: db.CardStats()}, opts), nil
}

// NewLive builds an engine over a live store: executions pin the store's
// current snapshot, so queries serve exact, bounded answers while the
// store ingests writes. The store's construction already verified
// D |= A and sealed the base, and every accepted write preserves the
// invariant, so each cached plan stays sound for every future epoch.
//
// Deprecated: serve a shard.Store (Shards: 1 for a single store) through
// NewSharded. NewLive stays while the benchmark harness names it.
func NewLive(ls *live.Store, opts Options) (*Engine, error) {
	if ls == nil {
		return nil, fmt.Errorf("engine: live store is required")
	}
	return assemble(ls.Catalog(), liveSource{ls}, opts), nil
}

// NewSharded builds an engine over a sharded store: every execution pins
// the store's published cut across all shards (shard.Store.View) and
// the executor scatter-gathers each step's probe batch to the owning
// shards, so answers, per-result access statistics and |D_Q| are
// byte-identical to single-store execution while ingest stages each
// batch shard-parallel. The shards' construction verified D |= A per shard,
// which (groups being whole on one shard) is the global invariant.
//
// The engine's Database() is the store's current view, frozen — useful
// for baseline comparisons, not consulted for serving.
func NewSharded(ss *shard.Store, opts Options) (*Engine, error) {
	if ss == nil {
		return nil, fmt.Errorf("engine: sharded store is required")
	}
	return assemble(ss.Catalog(), shardSource{ss}, opts), nil
}

// assemble wires the shared engine internals.
func assemble(cat *schema.Catalog, src Source, opts Options) *Engine {
	size := opts.PlanCacheSize
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	e := &Engine{
		cat:    cat,
		src:    src,
		cache:  clock.New[*cacheEntry](size),
		errs:   clock.New[*cacheEntry](size),
		texts:  clock.New[parsedText](size),
		flight: make(map[string]*inflight),
	}
	e.recorder = opts.Recorder
	e.instrument(opts.Metrics)
	return e
}

// instrument registers the engine's metrics on a registry (nil: no-op —
// every handle stays nil and the hot paths skip their observations). The
// plan-cache counters are scrape-time bridges over the atomics Stats()
// already maintains, so instrumentation adds no write-path cost.
func (e *Engine) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	e.metrics = reg
	e.execMetrics = obs.NewExecMetrics(reg)
	const prepName = "bcq_prepare_seconds"
	const prepHelp = "Latency of Prepare by outcome (hit: plan cache; miss: analyze->plan; error: rejected shape)."
	e.prepHit = reg.Histogram(prepName, prepHelp, obs.LatencyBuckets, obs.L("outcome", "hit"))
	e.prepMiss = reg.Histogram(prepName, prepHelp, obs.LatencyBuckets, obs.L("outcome", "miss"))
	e.prepErr = reg.Histogram(prepName, prepHelp, obs.LatencyBuckets, obs.L("outcome", "error"))
	cf := func(name, help string, load func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(load()) })
	}
	cf("bcq_plan_prepares_total", "Prepare/PrepareQuery calls.", e.prepares.Load)
	cf("bcq_plan_cache_hits_total", "Prepares answered from the plan cache.", e.hits.Load)
	cf("bcq_plan_cache_misses_total", "Prepares that ran the analyze->plan pipeline.", e.misses.Load)
	cf("bcq_plan_cache_evictions_total", "Cached plans displaced by the CLOCK policy.", e.evictions.Load)
	cf("bcq_plan_stale_retries_total", "Cached errors retried after a schema-version advance.", e.staleRetries.Load)
	cf("bcq_plan_replans_total", "Cached plans rebuilt after cardinality drift.", e.replans.Load)
	cf("bcq_exec_runs_total", "Prepared executions started.", e.execs.Load)
	reg.GaugeFunc("bcq_plan_cache_entries", "Plans currently cached.",
		func() float64 { return float64(e.CacheLen()) })
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *schema.Catalog { return e.cat }

// Access returns the engine's current access schema (for a live or
// sharded engine, reflecting any runtime ExtendAccess).
func (e *Engine) Access() *schema.AccessSchema { return e.src.Access() }

// Database returns the sealed database behind the engine's store, asked
// of the store at call time: the database itself for a sealed engine; for
// a live engine the base its current epoch overlays, not the current data
// (use View, or the live store's Snapshot, for that); and for a sharded
// engine its current view frozen into one database, O(|D|) per call.
func (e *Engine) Database() *storage.Database { return e.src.Base() }

// View pins the store one evaluation would run against: the sealed
// database, or the live store's current snapshot. Callers that need
// several queries answered from one consistent epoch pin a view once and
// pass it to Prepared.ExecOn.
func (e *Engine) View() exec.Store { return e.src.View() }

// EpochKey renders the data version of the view it pins, for display
// (/stats, /healthz, an /ingest's answer). A pin is at most one atomic
// load on every store, so this never waits for a writer; a /query
// response names the epoch of the view it ran on instead.
func (e *Engine) EpochKey() string {
	return string(e.src.View().(epochKeyed).AppendEpochKey(nil))
}

// Epoch is a cheap token of the store's data version, without pinning a
// view: it advances with every commit, compaction and schema extension,
// so two equal reads bracket a stretch in which a pinned view stayed
// current. It names no consistent cut (see Source.Epoch).
func (e *Engine) Epoch() uint64 { return e.src.Epoch() }

// Shards returns the source's partition count (1 for unsharded stores),
// without pinning a view — readiness reporting reads it per request.
func (e *Engine) Shards() int { return e.src.NumShards() }

// Metrics returns the registry the engine was instrumented on (nil when
// instrumentation is disabled).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Prepares:     e.prepares.Load(),
		CacheHits:    e.hits.Load(),
		CacheMisses:  e.misses.Load(),
		Evictions:    e.evictions.Load(),
		StaleRetries: e.staleRetries.Load(),
		Replans:      e.replans.Load(),
		Execs:        e.execs.Load(),
	}
}

// DrainUpgrades returns at once.
//
// Deprecated: plans are never upgraded in the background; the method is
// deleted once no caller names it.
func (e *Engine) DrainUpgrades() {}

// CardStats returns the source store's current cardinality statistics —
// what the planner would run on right now.
func (e *Engine) CardStats() stats.Snapshot { return e.src.CardStats() }

// CacheLen returns the number of cached plans.
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache.Len()
}

// parsedText is a query as the plan cache wants it: validated, with the
// fingerprint rendered once.
type parsedText struct {
	q  *spc.Query
	fp string
}

// maxMemoText bounds the texts the memo retains: it keeps the caller's
// string, and 128 request bodies' worth of one hostile text must not pin
// a gigabyte.
const maxMemoText = 4 << 10

// parse resolves a text through the memo, parsing (and remembering) it
// only when the memo has never seen it. Failed parses are not remembered:
// the catalog is fixed, so they fail the same way every time, cheaply.
func (e *Engine) parse(text string) (parsedText, error) {
	e.mu.Lock()
	pt, ok := e.texts.Get(text)
	e.mu.Unlock()
	if ok {
		return pt, nil
	}
	q, err := spc.Parse(text, e.cat)
	if err != nil {
		return parsedText{}, err
	}
	pt = parsedText{q: q, fp: fingerprint(q)}
	if len(text) <= maxMemoText {
		e.mu.Lock()
		e.texts.Put(text, pt)
		e.mu.Unlock()
	}
	return pt, nil
}

// Prepare parses a query text and returns its prepared form, planning it
// only if no plan for the same normalized fingerprint is cached. The
// returned Prepared is shared: it may be executed concurrently by many
// goroutines.
func (e *Engine) Prepare(text string) (*Prepared, error) {
	return e.PrepareTraced(text, nil)
}

// PrepareTraced is Prepare with a "prepare" span recorded on tr, tagged
// with whether the plan cache answered. Nil tr behaves like Prepare.
func (e *Engine) PrepareTraced(text string, tr *obs.Trace) (*Prepared, error) {
	pt, err := e.parse(text)
	if err != nil {
		return nil, err
	}
	return e.prepare(pt, tr)
}

// PrepareQuery prepares an already-built SPC query. The query is cloned
// and validated; the caller's value is not retained.
func (e *Engine) PrepareQuery(q *spc.Query) (*Prepared, error) {
	return e.PrepareQueryTraced(q, nil)
}

// PrepareQueryTraced is PrepareQuery with a "prepare" span recorded on
// tr, tagged with whether the plan cache answered. Nil tr behaves like
// PrepareQuery.
func (e *Engine) PrepareQueryTraced(q *spc.Query, tr *obs.Trace) (*Prepared, error) {
	cq := q.Clone()
	if err := cq.Validate(e.cat); err != nil {
		return nil, err
	}
	return e.prepare(parsedText{q: cq, fp: fingerprint(cq)}, tr)
}

// Exec is the one-shot convenience: Prepare followed by Exec. Repeated
// calls with the same query shape still plan only once.
func (e *Engine) Exec(text string, args ...value.Value) (*exec.Result, error) {
	p, err := e.Prepare(text)
	if err != nil {
		return nil, err
	}
	return p.Exec(args...)
}

// prepare wraps lookupOrBuild with the engine's prepare instrumentation:
// latency observed on the outcome-labeled histogram, and — when tr is
// non-nil — a "prepare" span tagged with the cache verdict. With metrics
// disabled and no trace it costs exactly one extra branch.
func (e *Engine) prepare(pt parsedText, tr *obs.Trace) (*Prepared, error) {
	if e.metrics == nil && tr == nil {
		prep, _, err := e.lookupOrBuild(pt)
		return prep, err
	}
	start := time.Now()
	prep, cached, err := e.lookupOrBuild(pt)
	d := time.Since(start).Seconds()
	sp := tr.Root().ChildAt("prepare", start)
	switch {
	case err != nil:
		e.prepErr.Observe(d)
		sp.Tag("outcome", "error")
	case cached:
		e.prepHit.Observe(d)
		sp.Tag("cache", "hit")
	default:
		e.prepMiss.Observe(d)
		sp.Tag("cache", "miss")
	}
	sp.End()
	return prep, err
}

// lookupOrBuild serves a validated query from the plan cache, planning it
// at most once per fingerprint per schema/epoch version; cached reports
// whether the answer (plan or error) came from the cache or an in-flight
// build it joined, rather than a pipeline run by this call. Successful plans
// stay sound forever (live admission keeps D |= A invariant across
// epochs) but are *versioned by a stats fingerprint*: a cache hit whose
// plan was costed against cardinalities that have since drifted past the
// re-planning threshold (roughly 2× on a constraint the plan probes) is
// discarded and rebuilt against current statistics — correctness never
// required it, performance did. Errors are cached tagged with the source
// version and retried once the version advances — ingest, compaction or
// a schema extension may have made the shape answerable. The engine
// mutex is never held across the boundedness analysis: concurrent
// prepares of distinct fingerprints overlap, and same-fingerprint
// prepares coalesce on one in-flight analysis. Every call moves Prepares
// by one and exactly one of CacheHits and CacheMisses.
func (e *Engine) lookupOrBuild(pt parsedText) (prep *Prepared, cached bool, err error) {
	e.prepares.Add(1)
	fp := pt.fp

	for {
		// Read the version before the schema: if an extension lands between
		// the two reads, the entry is tagged with the older version and at
		// worst retried once more — a stale error can never be tagged fresh.
		ver := e.src.Version()
		acc := e.src.Access()

		e.mu.Lock()
		if ent, ok := e.cache.Get(fp); ok {
			e.mu.Unlock()
			// Drift check outside the mutex — the hit path must never
			// serialize behind it under serving load.
			if e.current(ent.prep) {
				e.hits.Add(1)
				return ent.prep, true, nil
			}
			// Observed cardinalities drifted: re-plan without restart.
			// Remove only the entry we judged stale — a concurrent
			// prepare may already have rebuilt a fresh one under this
			// fingerprint, which must survive.
			e.mu.Lock()
			if cur, ok := e.cache.Get(fp); ok && cur == ent {
				e.cache.Remove(fp)
				e.replans.Add(1)
			}
			e.mu.Unlock()
			continue
		}
		if ent, ok := e.errs.Get(fp); ok {
			if ent.version >= ver {
				e.mu.Unlock()
				e.hits.Add(1)
				return nil, true, ent.err
			}
			// The store moved past the cached verdict: drop it and re-analyze.
			e.errs.Remove(fp)
			e.staleRetries.Add(1)
		}
		if fl, ok := e.flight[fp]; ok {
			e.mu.Unlock()
			<-fl.done
			if fl.err != nil && ver > fl.version {
				// The build we joined began before the version we observed;
				// its failure may predate a schema extension. Re-run the
				// sequence — the stale entry it cached is behind our version,
				// so the retry falls through to a fresh analysis.
				continue
			}
			e.hits.Add(1)
			return fl.prep, true, fl.err
		}
		fl := &inflight{done: make(chan struct{}), version: ver}
		e.flight[fp] = fl
		e.mu.Unlock()

		e.misses.Add(1)
		if h := e.buildHook; h != nil {
			h(fp)
		}
		prep, err = e.build(pt, acc)

		e.mu.Lock()
		if err == nil {
			if e.cache.Put(fp, &cacheEntry{prep: prep}) {
				e.evictions.Add(1)
			}
		} else {
			e.errs.Put(fp, &cacheEntry{err: err, version: ver})
		}
		delete(e.flight, fp)
		e.mu.Unlock()

		fl.prep, fl.err = prep, err
		close(fl.done)
		return prep, false, err
	}
}

// current reports whether a plan was costed against statistics the store
// still shows, within the re-planning threshold. Statistics cannot
// move unless the store's epoch does, so the shapes are compared once per
// epoch and plan: a hit at the epoch the plan was last verified at
// loads two atomics. The epoch is read before the statistics (see
// Source.Epoch), so a commit landing between the two reads leaves the
// older token behind and the next hit verifies again.
func (e *Engine) current(p *Prepared) bool {
	epoch := e.src.Epoch()
	if p.verifiedAt.Load() == epoch {
		return true
	}
	if !e.shapesHold(p) {
		return false
	}
	p.verifiedAt.Store(epoch)
	return true
}

// shapesHold reports whether every constraint a plan probes still has
// the quantized shape it was costed against — what comparing the plan's
// statistics fingerprint with a fresh one would say, read card by card
// from the store's counters: no statistics snapshot, no rendering, no
// allocation.
func (e *Engine) shapesHold(p *Prepared) bool {
	for i := range p.pl.Probed {
		if stats.ShapeOf(e.src.ACCard(p.pl.Probed[i].Key)) != p.shapes[i] {
			return false
		}
	}
	return true
}

// fingerprint normalizes a validated query to its cache key: the
// canonical rendering of its shape — atoms, conditions, placeholders and
// projection — independent of the query's name, surface whitespace,
// quoting style or alias defaults. Two texts that parse to the same shape
// share one plan; placeholder order is part of the shape because
// arguments bind positionally.
func fingerprint(q *spc.Query) string { return q.String() }
