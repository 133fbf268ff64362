package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bcq/internal/core"
	"bcq/internal/engine"
	"bcq/internal/exec"
	"bcq/internal/live"
	"bcq/internal/plan"
	"bcq/internal/schema"
	"bcq/internal/segment"
	"bcq/internal/serve"
	"bcq/internal/spc"
	"bcq/internal/storage"
	"bcq/internal/value"
	"bcq/internal/wal"
)

// perLayer names every metric of a traced run, layer by layer; the
// layers are the repository's packages.
var perLayer = []string{
	"serve.self_us_per_op", "serve.result_cache_hit_ratio", "serve.response_bytes_per_op", "serve.rejected_total", "serve.pages_per_op",
	"engine.prepare_hit_us", "engine.prepare_miss_us", "engine.plan_cache_hit_ratio", "engine.exec_us_per_op", "engine.evictions_total", "engine.replans_total",
	"engine.upgrades_total", "engine.upgrades_discarded_total",
	"spc.parse_us_per_op", "core.analyze_us_per_op", "plan.greedy_us_per_op", "plan.optimize_us_per_op", "plan.est_over_actual_fetch",
	"exec.stream_us_per_op", "exec.first_tuple_us", "exec.probes_per_op", "exec.fetched_per_row", "exec.dq_per_op", "exec.skipped_per_op",
	"live.snapshot_pin_ns", "live.apply_us_per_batch", "live.flattens_total", "live.ops_rejected_total", "live.compact_ms", "live.reopen_s",
	"shard.apply_us_per_batch", "shard.view_pin_ns", "shard.probe_imbalance",
	"wal.append_us", "wal.bytes_per_user_byte", "wal.appends_per_batch",
	"segment.write_ms", "segment.bytes_per_user_byte",
	"runtime.gc_cycles", "runtime.gc_pause_ms",
}

// span is one timed call into a layer. The spans of one operation share
// Op; Parent is the span that caused this one (0 for the handler call
// that starts an operation). A replayed call is caused by the handler
// call it repeats, and runs right after it rather than inside it.
type span struct {
	Op      int64  `json:"op"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept for -trace-out.
const maxSpans = 1 << 20

// pinReps is how many times a view pin is repeated per measurement: one
// pin is shorter than the clock's own cost.
const pinReps = 32

// tracer measures the layers from outside, through their exported
// functions. After each handler call it replays the same operation
// directly against the layers below: Engine.Prepare, a pinned view,
// Prepared.ExecStreamOn over a store wrapper that times every fetch, and
// for a shape the plan cache cannot hold also spc.Parse,
// core.NewAnalysis, plan.OptimizeGreedy and plan.Optimize; a write is
// replayed on shard.Store.Apply and on a scratch WAL. A layer's self
// time is its span less the spans of the layers below it. The sums live
// here; the spans themselves are kept only when they are to be written
// out. The clients share one tracer and replay one at a time.
type tracer struct {
	mu    sync.Mutex
	sys   *system
	epoch time.Time
	keep  bool
	spans []span
	op    int64
	ids   int32

	reads, cached, coldOps, prepares, execs int64
	handler, prepare, parse, analyze        time.Duration
	// handlerPrepare estimates the time the handlers' own prepares took.
	handlerPrepare, prepareMiss          time.Duration
	greedy, optimize, execTotal, store   time.Duration
	partition, firstTuple, pin, shardPin time.Duration
	pins                                 int64
	probes, fetched, rows, dq, skipped   int64
	estFetch                             float64

	batches, walAppends, walBytes, userBytes int64
	ingestHandler, apply, walAppend          time.Duration
	scratch                                  *wal.WAL
	scratchDir                               string

	compacts, segWrites, segBytes, segUserBytes int64
	compactTotal, segWrite                      time.Duration
}

// newTracer also opens, for a durable store, the scratch directory and
// WAL that the write replays go to.
func newTracer(sys *system, keep bool) (*tracer, error) {
	t := &tracer{sys: sys, keep: keep, epoch: time.Now()}
	if sys.ss == nil {
		return t, nil
	}
	t.scratchDir = sys.dir + "-scratch"
	if err := os.MkdirAll(t.scratchDir, 0o755); err != nil {
		return nil, err
	}
	var err error
	t.scratch, _, err = wal.Open(filepath.Join(t.scratchDir, "scratch.wal"))
	return t, err
}

// reset forgets what the warm-up was traced for. The warm-up is traced
// too, so that every batch of a traced run is applied twice, and deleted
// twice, from the first one on.
func (t *tracer) reset() {
	if t != nil {
		*t = tracer{sys: t.sys, keep: t.keep, epoch: time.Now(), scratch: t.scratch, scratchDir: t.scratchDir}
	}
}

// reserve hands out a span id before the span has ended, for its
// children to name as their parent.
func (t *tracer) reserve() int32 {
	t.ids++
	return t.ids
}

func (t *tracer) put(id int32, name string, parent int32, start time.Time, d time.Duration) {
	if t.keep && len(t.spans) < maxSpans {
		s := start.Sub(t.epoch).Nanoseconds()
		t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, StartNs: s, EndNs: s + d.Nanoseconds()})
	}
}

// rec records a finished span and returns its id.
func (t *tracer) rec(name string, parent int32, start time.Time, d time.Duration) int32 {
	id := t.reserve()
	t.put(id, name, parent, start, d)
	return id
}

// timed runs f as a span and returns its duration.
func (t *tracer) timed(name string, parent int32, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.rec(name, parent, start, d)
	return d
}

// timedStore times the executor's calls into the store: what it
// measures is the live layer's share of an execution, and on a sharded
// view the shard layer's routing as well.
type timedStore struct {
	t      *tracer
	parent int32
	inner  exec.Store
}

func (s *timedStore) FetchBatch(ac schema.AccessConstraint, xs []value.Tuple) (g [][]storage.IndexEntry, err error) {
	s.t.store += s.t.timed("live.fetch", s.parent, func() { g, err = s.inner.FetchBatch(ac, xs) })
	return g, err
}

func (s *timedStore) NonEmpty(rel string) (bool, error) { return s.inner.NonEmpty(rel) }

type timedShards struct {
	timedStore
	ps exec.PartitionedStore
}

func (s *timedShards) NumShards() int { return s.ps.NumShards() }

func (s *timedShards) Partition(ac schema.AccessConstraint, xs []value.Tuple) (owners []int, err error) {
	s.t.partition += s.t.timed("shard.partition", s.parent, func() { owners, err = s.ps.Partition(ac, xs) })
	return owners, err
}

func (s *timedShards) FetchShard(shard int, ac schema.AccessConstraint, xs []value.Tuple) (g [][]storage.IndexEntry, err error) {
	s.t.store += s.t.timed("live.fetch", s.parent, func() { g, err = s.ps.FetchShard(shard, ac, xs) })
	return g, err
}

func (t *tracer) wrap(view exec.Store, parent int32) exec.Store {
	ts := timedStore{t: t, parent: parent, inner: view}
	if ps, ok := view.(exec.PartitionedStore); ok {
		return &timedShards{timedStore: ts, ps: ps}
	}
	return &ts
}

// query books a read's handler time and replays the read. The handler's
// response is still in w.c.w.
func (t *tracer) query(w *worker, o *op, handler time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.reads++
	t.handler += handler
	root := t.rec("serve.handler", 0, time.Now().Add(-handler), handler)
	cached := o.kind == opQuery && bytes.Contains(w.c.w.body, []byte(`"cached":true`))
	eng, cat := t.sys.eng, t.sys.sc.cat

	var p *engine.Prepared
	var err error
	hit := t.timed("engine.prepare", root, func() { p, err = eng.Prepare(o.text) })
	t.prepare += hit
	t.prepares++
	var q *spc.Query
	t.parse += t.timed("spc.parse", root, func() { q, _ = spc.Parse(o.text, cat) })
	if err != nil || q == nil {
		w.failed++
		return
	}
	// What the handler's own prepare cost: a plan-cache hit like the one
	// just replayed or, for a never-seen shape, a miss like the twin's,
	// of which analysis and greedy planning are replayed one by one.
	t.handlerPrepare += hit
	if o.twin != "" {
		t.coldOps++
		id := t.reserve()
		start := time.Now()
		_, err = eng.Prepare(o.twin)
		miss := time.Since(start)
		t.prepareMiss += miss
		t.handlerPrepare += miss - hit
		cs := eng.CardStats()
		var an *core.Analysis
		if err == nil {
			t.analyze += t.timed("core.analyze", id, func() { an, err = core.NewAnalysis(cat, q, eng.Access()) })
		}
		if err == nil {
			t.greedy += t.timed("plan.greedy", id, func() { _, err = plan.OptimizeGreedy(an, &cs) })
			// The optimizer is not part of a prepare: the engine runs it in
			// the background.
			t.optimize += t.timed("plan.optimize", root, func() { _, _ = plan.Optimize(an, &cs) })
		}
		t.put(id, "engine.prepare_miss", root, start, miss)
		if err != nil {
			w.failed++
			return
		}
	}

	var view exec.Store
	pin := t.timed("engine.view", root, func() {
		for i := 0; i < pinReps; i++ {
			view = eng.View()
		}
	})
	t.pins += pinReps
	if t.sys.ss != nil {
		t.shardPin += pin
		t.pin += t.timed("live.snapshot", root, func() {
			for i := 0; i < pinReps; i++ {
				_ = t.sys.ss.Shard(0).Snapshot()
			}
		})
	} else {
		t.pin += pin
	}
	if cached {
		t.cached++
		return
	}

	// The handler drains an unbatched stream for a whole answer and a
	// batched one for a page; so does the replay.
	opts := exec.StreamOptions{BatchSize: exec.Unbatched}
	if o.kind == opScan {
		opts = exec.StreamOptions{}
	}
	t.execs++
	start := time.Now()
	id := t.reserve()
	st, err := p.ExecStreamOn(t.wrap(view, id), opts, o.args...)
	if err != nil {
		w.failed++
		return
	}
	_, ok, _ := st.Next()
	t.firstTuple += time.Since(start)
	res, err := st.Drain()
	d := time.Since(start)
	t.execTotal += d
	t.put(id, "engine.exec", root, start, d)
	if err != nil {
		w.failed++
		return
	}
	t.rows += int64(len(res.Tuples))
	if ok {
		t.rows++
	}
	t.probes += res.Stats.IndexLookups
	t.fetched += res.Stats.TuplesFetched
	t.dq += res.DQSize
	for _, s := range res.StepStats {
		t.skipped += s.Skipped
	}
	t.estFetch += p.EstFetch()
}

// ingest books a write's handler time and replays the batch: once more
// on the store (the tuples it adds twice it also deletes twice), and as
// one record on a scratch WAL, which is how a WAL append is timed from
// outside.
func (t *tracer) ingest(w *worker, o *op, handler time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.batches++
	t.ingestHandler += handler
	root := t.rec("serve.ingest", 0, time.Now().Add(-handler), handler)
	ss := t.sys.ss
	if ss == nil {
		return
	}
	before := t.walStats()
	var err error
	t.apply += t.timed("shard.apply", root, func() { err = ss.Apply(o.batch) })
	if err != nil {
		w.failed++
	}
	after := t.walStats()
	t.walAppends += after.Appends - before.Appends
	t.walBytes += after.AppendedBytes - before.AppendedBytes
	rec := wal.Record{Kind: wal.RecBatch, Epoch: uint64(t.batches), Ops: make([]wal.Op, len(o.batch))}
	for i, op := range o.batch {
		rec.Ops[i] = wal.Op{Kind: wal.OpKind(op.Kind), Rel: op.Rel, Tuple: op.Tuple}
		t.userBytes += int64(8 * len(op.Tuple))
	}
	t.walAppend += t.timed("wal.append", root, func() { err = t.scratch.Append(rec) })
	if err != nil {
		w.failed++
	}
}

func (t *tracer) walStats() (sum wal.Stats) {
	for i := 0; i < t.sys.ss.NumShards(); i++ {
		s := t.sys.ss.Shard(i).WAL().Stats()
		sum.Appends += s.Appends
		sum.AppendedBytes += s.AppendedBytes
	}
	return sum
}

// compact books a checkpoint and replays its segment write for shard 0
// into the scratch directory.
func (t *tracer) compact(w *worker, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	t.compacts++
	t.compactTotal += d
	root := t.rec("live.compact", 0, time.Now().Add(-d), d)
	shard0 := t.sys.ss.Shard(0)
	frozen, err := shard0.Snapshot().Freeze()
	if err != nil {
		w.failed++
		return
	}
	var info segment.Info
	t.segWrite += t.timed("segment.write", root, func() { info, err = segment.Write(t.scratchDir, frozen, shard0.Access(), uint64(t.compacts)) })
	if err != nil {
		w.failed++
		return
	}
	t.segWrites++
	t.segBytes += info.Bytes
	for _, rs := range t.sys.sc.cat.Relations() {
		t.segUserBytes += int64(8 * rs.Arity() * len(frozen.MustRelation(rs.Name()).Tuples))
	}
	os.Remove(info.Path)
}

// counters are the layers' own counts, read before and after the
// measured phase.
type counters struct {
	eng    engine.Stats
	cache  serve.CacheStats
	store  storage.Stats
	ingest live.IngestStats
	shards []storage.Stats
	mem    runtime.MemStats
}

func readCounters(sys *system) (c counters) {
	c.eng, c.cache = sys.eng.Stats(), sys.srv.CacheStats()
	if sys.ss != nil {
		c.store, c.ingest, c.shards = sys.ss.Stats(), sys.ss.IngestStats(), sys.ss.ShardStats()
	} else {
		c.store, c.ingest = sys.ls.Stats(), sys.ls.IngestStats()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// traceReport turns the tracers' sums and the layers' counters into the
// per-layer metrics, and logs each layer's share of the time.
func traceReport(cfg config, t *tracer, workers []*worker, before, after counters, elapsed time.Duration) map[string]float64 {
	sys := t.sys
	var issued, pages, respBytes, failed int64
	for _, w := range workers {
		issued, pages, respBytes, failed = issued+w.issued, pages+w.pages, respBytes+w.respBytes, failed+w.failed
	}
	reads, batches := float64(t.reads), float64(t.batches)

	// Self times over the whole phase: a layer's spans less those of the
	// layers below. The handler executed only when the result cache
	// missed, and only then is an execution replayed.
	pins := (t.pin + t.shardPin) / pinReps
	engineSelf := t.handlerPrepare - t.parse - t.analyze - t.greedy + pins
	execSelf := t.execTotal - t.store - t.partition
	serveSelf := t.handler - t.handlerPrepare - pins - t.execTotal + t.ingestHandler - t.apply
	liveSelf := t.store + t.compactTotal - t.segWrite
	if t.batches > 0 {
		liveSelf += t.apply - t.walAppend
	}
	shares := []struct {
		layer string
		d     time.Duration
	}{
		{"serve", serveSelf}, {"engine", engineSelf}, {"spc", t.parse}, {"core", t.analyze}, {"plan", t.greedy + t.optimize},
		{"exec", execSelf}, {"live", liveSelf}, {"shard", t.partition}, {"wal", t.walAppend}, {"segment", t.segWrite},
	}
	var total time.Duration
	for _, s := range shares {
		total += s.d
	}
	for _, s := range shares {
		cfg.logf("self time %-8s %9.1f ms  %5.1f%%", s.layer, float64(s.d.Microseconds())/1e3, 100*ratio(float64(s.d), float64(total)))
	}
	inHandler := t.handler + t.ingestHandler + t.compactTotal
	cfg.logf("traced: %.1f ops/s; the handler calls alone would run at %.2fx that rate (tracing overhead)",
		float64(issued)/elapsed.Seconds(), ratio(float64(elapsed), float64(inHandler)/float64(len(workers))))

	d := func(a, b int64) float64 { return float64(b - a) }
	m := map[string]float64{}
	m["serve.self_us_per_op"] = ratio(us(serveSelf), reads+batches)
	m["serve.result_cache_hit_ratio"] = ratio(d(before.cache.Hits, after.cache.Hits),
		d(before.cache.Hits, after.cache.Hits)+d(before.cache.Misses, after.cache.Misses))
	m["serve.response_bytes_per_op"] = ratio(float64(respBytes), float64(issued))
	m["serve.rejected_total"] = float64(failed)
	m["serve.pages_per_op"] = ratio(float64(pages), float64(issued))

	m["engine.prepare_hit_us"] = ratio(us(t.prepare), float64(t.prepares))
	m["engine.prepare_miss_us"] = ratio(us(t.prepareMiss), float64(t.coldOps))
	// The replayed prepares are hits, and the twins misses, by
	// construction; they are taken out.
	m["engine.plan_cache_hit_ratio"] = ratio(d(before.eng.CacheHits, after.eng.CacheHits)-float64(t.prepares),
		d(before.eng.Prepares, after.eng.Prepares)-float64(t.prepares+t.coldOps))
	m["engine.exec_us_per_op"] = ratio(us(t.execTotal), reads)
	m["engine.evictions_total"] = d(before.eng.Evictions, after.eng.Evictions)
	m["engine.replans_total"] = d(before.eng.Replans, after.eng.Replans)
	m["engine.upgrades_total"] = d(before.eng.Upgrades, after.eng.Upgrades)
	m["engine.upgrades_discarded_total"] = d(before.eng.UpgradesDiscarded, after.eng.UpgradesDiscarded)

	m["spc.parse_us_per_op"] = ratio(us(t.parse), reads)
	m["core.analyze_us_per_op"] = ratio(us(t.analyze), reads)
	m["plan.greedy_us_per_op"] = ratio(us(t.greedy), reads)
	m["plan.optimize_us_per_op"] = ratio(us(t.optimize), reads)
	m["plan.est_over_actual_fetch"] = ratio(t.estFetch, float64(t.fetched))

	m["exec.stream_us_per_op"] = ratio(us(execSelf), reads)
	m["exec.first_tuple_us"] = ratio(us(t.firstTuple), float64(t.execs))
	m["exec.probes_per_op"] = ratio(float64(t.probes), float64(t.execs))
	m["exec.fetched_per_row"] = ratio(float64(t.fetched), float64(t.rows))
	m["exec.dq_per_op"] = ratio(float64(t.dq), float64(t.execs))
	m["exec.skipped_per_op"] = ratio(float64(t.skipped), float64(t.execs))

	m["live.snapshot_pin_ns"] = ratio(float64(t.pin.Nanoseconds()), float64(t.pins))
	m["live.flattens_total"] = d(before.ingest.Flattens, after.ingest.Flattens)
	m["live.ops_rejected_total"] = d(before.ingest.OpsRejected, after.ingest.OpsRejected)
	m["live.compact_ms"] = ratio(float64(t.compactTotal.Microseconds())/1e3, float64(t.compacts))
	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	if sys.ss != nil {
		// Shards commit in parallel, so one WAL append lies on a batch's
		// critical path; what is left of the apply is the live layer's.
		m["shard.apply_us_per_batch"] = ratio(us(t.apply), batches)
		m["wal.append_us"] = ratio(us(t.walAppend), batches)
		m["live.apply_us_per_batch"] = m["shard.apply_us_per_batch"] - m["wal.append_us"]
		m["shard.view_pin_ns"] = ratio(float64(t.shardPin.Nanoseconds()), float64(t.pins))
		var most, sum float64
		for i := range after.shards {
			n := d(before.shards[i].IndexLookups, after.shards[i].IndexLookups)
			most, sum = max(most, n), sum+n
		}
		m["shard.probe_imbalance"] = ratio(most*float64(len(after.shards)), sum)
		m["wal.bytes_per_user_byte"] = ratio(float64(t.walBytes), float64(t.userBytes))
		m["wal.appends_per_batch"] = ratio(float64(t.walAppends), batches)
		m["segment.write_ms"] = ratio(float64(t.segWrite.Microseconds())/1e3, float64(t.segWrites))
		m["segment.bytes_per_user_byte"] = ratio(float64(t.segBytes), float64(t.segUserBytes))
	}
	for _, name := range perLayer {
		m[name] += 0
	}
	return m
}

// close releases the tracer's scratch files.
func (t *tracer) close() {
	if t.scratch != nil {
		t.scratch.Close()
	}
	if t.scratchDir != "" {
		os.RemoveAll(t.scratchDir)
	}
}

// writeSpans writes the kept spans to path, one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	out := bufio.NewWriter(f)
	enc := json.NewEncoder(out)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := out.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
