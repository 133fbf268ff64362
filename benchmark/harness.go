package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/obs"
	"bcq/internal/serve"
	"bcq/internal/shard"
)

// system is the program under test, assembled the way cmd/bqserve
// assembles it with its default flags: tiered planning, a 128-entry plan
// cache, a 4096-entry result cache, one probe worker per query and as
// many request workers as GOMAXPROCS. ingest_churn gets the durable
// two-shard store (WAL fsynced on every commit); the other workloads get
// the single in-memory live store.
type system struct {
	sc  *scene
	ls  *live.Store
	ss  *shard.Store
	eng *engine.Engine
	srv *serve.Server
	dir string // the durable store's directory, "" when in memory
}

const durableShards = 2

// sceneSeed draws the scene. It is the same for every run, so that runs,
// and workloads, differ in their traffic and not in their data.
const sceneSeed = 1

// setUp generates the scene, loads and indexes it, and builds store,
// engine and server. dataDir is where a durable store puts its
// directory.
func setUp(workload string, sc *scene, dataDir string) (*system, error) {
	db, err := sc.load(sceneSeed)
	if err != nil {
		return nil, err
	}
	sys := &system{sc: sc}
	if workload == wlIngestChurn {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		if sys.dir, err = os.MkdirTemp(dataDir, "store-"); err != nil {
			return nil, err
		}
		if sys.ss, err = shard.New(db, sc.acc, shard.Options{Shards: durableShards, Dir: sys.dir}); err != nil {
			os.RemoveAll(sys.dir)
			return nil, err
		}
		err = sys.serveSharded()
	} else {
		if sys.ls, err = live.New(db, sc.acc, live.Options{}); err != nil {
			return nil, err
		}
		if sys.eng, err = engine.NewLive(sys.ls, engineOptions); err != nil {
			return nil, err
		}
		opts := serve.Options{Obs: &obs.Observer{}}
		opts.Ingest = func(ops []live.Op) error {
			_, err := sys.ls.Apply(ops)
			return err
		}
		opts.Metrics = sys.ls
		sys.srv, err = serve.New(sys.eng, opts)
	}
	if err != nil {
		sys.tearDown()
		return nil, err
	}
	return sys, nil
}

// engineOptions are bqserve's: one probe worker, tiered planning.
var engineOptions = engine.Options{Parallelism: 1, PlanMode: engine.PlanTiered}

// serveSharded puts engine and server over sys.ss.
func (sys *system) serveSharded() (err error) {
	if sys.eng, err = engine.NewSharded(sys.ss, engineOptions); err != nil {
		return err
	}
	sys.srv, err = serve.New(sys.eng, serve.Options{Obs: &obs.Observer{}, Ingest: sys.ss.Apply, Metrics: sys.ss})
	return err
}

// reopen closes the durable store and recovers it from its directory,
// as a restart would, and puts a fresh engine and server over it.
func (sys *system) reopen() (time.Duration, error) {
	if err := sys.ss.Close(); err != nil {
		return 0, err
	}
	start := time.Now()
	ss, _, err := shard.Open(sys.dir, sys.sc.cat, sys.sc.acc, shard.Options{})
	if err != nil {
		return 0, err
	}
	took := time.Since(start)
	sys.ss = ss
	return took, sys.serveSharded()
}

// tearDown closes the store and removes its directory.
func (sys *system) tearDown() {
	if sys.eng != nil {
		sys.eng.DrainUpgrades()
	}
	if sys.ss != nil {
		sys.ss.Close()
	}
	if sys.dir != "" {
		os.RemoveAll(sys.dir)
	}
}

// client sends requests to the server's handler in process: no socket,
// so that kernel networking is not part of what is measured.
type client struct {
	h      http.Handler
	query  *http.Request
	ingest *http.Request
	body   bytes.Reader
	w      response
}

// response is the http.ResponseWriter a client hands the handler.
type response struct {
	header http.Header
	status int
	body   []byte
}

func (w *response) Header() http.Header { return w.header }
func (w *response) WriteHeader(c int)   { w.status = c }
func (w *response) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

func newClient(h http.Handler) *client {
	c := &client{h: h, w: response{header: http.Header{}}}
	c.query, _ = http.NewRequest(http.MethodPost, "/query", nil)
	c.ingest, _ = http.NewRequest(http.MethodPost, "/ingest", nil)
	return c
}

// post sends one request and reports how long the handler took. The
// response stays in c.w until the next call.
func (c *client) post(req *http.Request, body []byte) time.Duration {
	c.body.Reset(body)
	req.Body = io.NopCloser(&c.body)
	clear(c.w.header)
	c.w.status, c.w.body = http.StatusOK, c.w.body[:0]
	start := time.Now()
	c.h.ServeHTTP(&c.w, req)
	return time.Since(start)
}

// nextCursor extracts the continuation token of a paged response ("" on
// the last page). Tokens are hex, so no unescaping is needed.
func nextCursor(body []byte) []byte {
	const key = `"next_cursor":"`
	i := bytes.LastIndex(body, []byte(key))
	if i < 0 {
		return nil
	}
	rest := body[i+len(key):]
	return rest[:bytes.IndexByte(rest, '"')]
}

// rec is one completed operation of the measured phase.
type rec struct {
	endUs   uint32 // completion, microseconds into the phase
	latNs   uint32 // time in the handler, summed over a scan's pages
	firstNs uint32 // time in the handler for the first page
	kind    opKind
}

func saturate(d time.Duration) uint32 {
	if d > 4*time.Second {
		d = 4 * time.Second
	}
	return uint32(d)
}

// worker is one client goroutine's state across the phases of a run.
type worker struct {
	sys    *system
	c      *client
	gen    generator
	tr     *tracer  // nil in an untraced run
	sample *sampler // nil outside the measured phase
	recs   []rec
	buf    []byte
	// issued and failed count operations; pages counts handler calls and
	// respBytes their response bytes.
	issued, failed, pages, respBytes int64
}

// do performs one operation and returns its record. When keep is set,
// the response bodies are copied into it.
func (w *worker) do(o *op, keep *verifyItem, phaseStart time.Time) rec {
	r := rec{kind: o.kind}
	ok := true
	switch o.kind {
	case opQuery:
		d := w.c.post(w.c.query, o.body)
		r.latNs, r.firstNs = saturate(d), saturate(d)
		ok = w.c.w.status == http.StatusOK && (o.expect == nil || bytes.Contains(w.c.w.body, o.expect))
		w.account(keep)
		w.tr.query(w, o, d)
	case opScan:
		var total time.Duration
		body := o.body
		for page := 0; ; page++ {
			d := w.c.post(w.c.query, body)
			total += d
			if page == 0 {
				r.firstNs = saturate(d)
			}
			w.account(keep)
			if w.c.w.status != http.StatusOK {
				ok = false
				break
			}
			cur := nextCursor(w.c.w.body)
			if len(cur) == 0 {
				break
			}
			w.buf = append(append(append(w.buf[:0], `{"cursor":"`...), cur...), `"}`...)
			body = w.buf
		}
		r.latNs = saturate(total)
		w.tr.query(w, o, total)
	case opIngest:
		d := w.c.post(w.c.ingest, o.body)
		r.latNs = saturate(d)
		ok = w.c.w.status == http.StatusOK
		w.account(nil)
		w.tr.ingest(w, o, d)
	case opCompact:
		start := time.Now()
		ok = w.sys.ss.Compact() == nil
		r.latNs = saturate(time.Since(start))
		w.tr.compact(w, time.Since(start))
	}
	w.issued++
	if !ok {
		w.failed++
	}
	r.endUs = uint32(time.Since(phaseStart) / time.Microsecond)
	return r
}

// account books one handler call's response.
func (w *worker) account(keep *verifyItem) {
	w.pages++
	w.respBytes += int64(len(w.c.w.body))
	if keep != nil {
		keep.bodies = append(keep.bodies, bytes.Clone(w.c.w.body))
	}
}

// checkpoints is how many times the operator checkpoints the durable
// store during a measured phase, at even intervals by the clock. It is a
// schedule and not a share of the operations, so that a faster store
// does not checkpoint more often in a run, which would move allocation
// and live heap in steps.
const checkpoints = 2

// A measured phase is cut into windows of equal length, and the first
// client runs the reference kernel (calib.go) ticksPerWindow times a
// window: at each border and nine times in between. With 20 seconds
// that is a window a second, a kernel run every 100 ms, and a percent
// and a half of that client's time.
const (
	windows        = 20
	ticksPerWindow = 10
)

// tick is one run of the reference kernel inside a measured phase.
type tick struct {
	startUs, endUs uint32 // microseconds into the phase
	took           time.Duration
}

func runTick(phaseStart time.Time) tick {
	t := tick{startUs: uint32(time.Since(phaseStart) / time.Microsecond)}
	t.took = kernel()
	t.endUs = uint32(time.Since(phaseStart) / time.Microsecond)
	return t
}

// phase runs every worker's loop for d and returns the elapsed time. In
// a measured phase (record) the operations are recorded, the durable
// store is checkpointed on schedule, and the first worker's kernel runs
// are returned.
func phase(workers []*worker, d time.Duration, record bool) (time.Duration, []tick) {
	start := time.Now()
	var ticks []tick
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(w *worker, keepsTime bool) {
			defer wg.Done()
			done := 0 // checkpoints so far
			for {
				elapsed := time.Since(start)
				if elapsed >= d {
					break
				}
				if keepsTime && elapsed*(windows*ticksPerWindow) >= d*time.Duration(len(ticks)) {
					ticks = append(ticks, runTick(start))
				}
				if record && w.sys.ss != nil && done < checkpoints && elapsed*(checkpoints+1) >= d*time.Duration(done+1) {
					done++
					w.recs = append(w.recs, w.do(&op{kind: opCompact}, nil, start))
				}
				o := w.gen.next()
				r := w.do(o, w.sample.pick(o), start)
				if record {
					w.recs = append(w.recs, r)
				}
			}
			if keepsTime {
				ticks = append(ticks, runTick(start)) // the last window's closing border
			}
		}(w, record && i == 0)
	}
	wg.Wait()
	return time.Since(start), ticks
}

// probeWrites is how many write batches a read-only workload's store is
// sent once everything else has been measured. They allocate 140 MB, and
// the collector, which has just run twice for heap_live_mb, waits for
// 260 MB: no collection starts during the probe. With twice as many one
// started near the end in some runs and not in others, and the median
// moved with it.
const (
	probeWrites = 1024
	probeTick   = 32 // batches between two kernel runs
)

// writeProbe gives write_p50_ms to the workloads that do not write: it
// sends ingest_churn's write batches to their in-memory store, after the
// measured phase so that no read ever sees a moved epoch, and returns
// the median handler time in milliseconds, scaled like every other time
// by kernel runs made in between, and how many batches failed.
func writeProbe(sys *system, seed int64) (p50 float64, failed int64) {
	c := newClient(sys.srv.Handler())
	g := newChurnGen(sys.sc, seed)
	lat := make([]uint32, probeWrites)
	clock := []time.Duration{kernel()}
	for i := range lat {
		if i%probeTick == probeTick-1 {
			clock = append(clock, kernel())
		}
		g.write()
		lat[i] = saturate(c.post(c.ingest, g.cur.body))
		if c.w.status != http.StatusOK {
			failed++
		}
	}
	slices.Sort(lat)
	return ms(quantile(lat, 0.5)) / slowdown(clock), failed
}

// timings are the latency and rate figures of a measured phase: each is
// taken per window, divided by the window's slowdown (a rate is
// multiplied), and the median over the windows is reported, which also
// keeps the two windows that hold a checkpoint out of the number.
type timings struct {
	opsPerS, queryP50, queryP95, firstPageP50, writeP50 float64
	reads, writes                                       int
	// slow is the median slowdown of the windows, and rawOpsPerS the median
	// rate as the clock on the wall saw it: for the log.
	slow, rawOpsPerS float64
}

func ms(ns uint32) float64 { return float64(ns) / 1e6 }

func quantile(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func aggregate(recs []rec, ticks []tick) timings {
	sort.Slice(recs, func(i, j int) bool { return recs[i].endUs < recs[j].endUs })
	var t timings
	var rates, rawRates, slows, p50s, p95s, firsts, writes []float64
	var lat, first, write []uint32
	for b := 0; b+ticksPerWindow < len(ticks); b += ticksPerWindow {
		// The window runs from the end of its opening kernel run to the
		// start of its closing one.
		from, to := ticks[b].endUs, ticks[b+ticksPerWindow].startUs
		lo := sort.Search(len(recs), func(i int) bool { return recs[i].endUs > from })
		hi := sort.Search(len(recs), func(i int) bool { return recs[i].endUs > to })
		if lo == hi {
			continue
		}
		var clock []time.Duration
		for _, k := range ticks[b : b+ticksPerWindow+1] {
			clock = append(clock, k.took)
		}
		slow := slowdown(clock)
		slows = append(slows, slow)
		rate := float64(hi-lo) / (float64(to-from) / 1e6)
		rawRates, rates = append(rawRates, rate), append(rates, rate*slow)
		lat, first, write = lat[:0], first[:0], write[:0]
		for _, r := range recs[lo:hi] {
			switch r.kind {
			case opQuery, opScan:
				lat, first = append(lat, r.latNs), append(first, r.firstNs)
			case opIngest:
				write = append(write, r.latNs)
			}
		}
		t.reads, t.writes = t.reads+len(lat), t.writes+len(write)
		if len(lat) > 0 {
			slices.Sort(lat)
			slices.Sort(first)
			p50s = append(p50s, ms(quantile(lat, 0.5))/slow)
			p95s = append(p95s, ms(quantile(lat, 0.95))/slow)
			firsts = append(firsts, ms(quantile(first, 0.5))/slow)
		}
		if len(write) > 0 {
			slices.Sort(write)
			writes = append(writes, ms(quantile(write, 0.5))/slow)
		}
	}
	t.opsPerS, t.rawOpsPerS, t.slow = median(rates), median(rawRates), median(slows)
	t.queryP50, t.queryP95, t.firstPageP50, t.writeP50 = median(p50s), median(p95s), median(firsts), median(writes)
	return t
}

// setups is how many times a run sets the system up; setup_s is the
// median.
const setups = 3

// config is one run's parameters.
type config struct {
	workload string
	// seed draws the operation sequence.
	seed int64
	// users is the scene's size: defaultUsers, except in the tests.
	users int
	// seconds is the length of the measured phase; the warm-up before it
	// lasts a tenth of that.
	seconds float64
	trace   bool
	dataDir string
	// specPath is where BENCHMARK.json is.
	specPath string
	// traceOut, when set, receives the traced run's spans.
	traceOut string
	logf     func(format string, args ...any)
}

// result is what a run reports.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
}

func run(cfg config) (*result, error) {
	sc, err := newScene(cfg.users)
	if err != nil {
		return nil, err
	}

	perKernel := kernelAlloc()

	// Set-up, several times over; the last system is the one measured.
	// Each is timed beside the reference kernel and scaled by it.
	var sys *system
	var setupS, rawSetupS []float64
	for i := 0; i < setups; i++ {
		if sys != nil {
			sys.tearDown()
			sys = nil
			runtime.GC()
		}
		scaled, wall, err := timeBeside(func() (err error) {
			sys, err = setUp(cfg.workload, sc, cfg.dataDir)
			return err
		})
		if err != nil {
			return nil, err
		}
		rawSetupS, setupS = append(rawSetupS, wall.Seconds()), append(setupS, scaled.Seconds())
	}
	defer func() { sys.tearDown() }()
	cfg.logf("set-up %.3fs (median of %.3f; by the wall clock %.3f), %d tuples", median(setupS), setupS, rawSetupS, sys.eng.Database().NumTuples())

	var tr *tracer
	if cfg.trace {
		if tr, err = newTracer(sys, cfg.traceOut != ""); err != nil {
			return nil, err
		}
		defer tr.close()
	}
	workers := make([]*worker, clientsOf(cfg.workload))
	for i := range workers {
		gen, err := newGenerator(cfg.workload, sc, cfg.seed, i)
		if err != nil {
			return nil, err
		}
		workers[i] = &worker{sys: sys, c: newClient(sys.srv.Handler()), gen: gen, tr: tr}
	}

	// Warm-up: a prefix of the same operation sequence fills the caches;
	// then the planner's background queue drains and the heap is
	// collected, so the measured phase starts from a settled process.
	measured := time.Duration(cfg.seconds * float64(time.Second))
	phase(workers, measured/10, false)
	sys.eng.DrainUpgrades()
	runtime.GC()
	runtime.GC()

	for i, w := range workers {
		w.sample = newSampler(cfg.seed, i)
		w.issued, w.failed, w.pages, w.respBytes = 0, 0, 0, 0
	}
	tr.reset()
	before := readCounters(sys)
	elapsed, ticks := phase(workers, measured, true)
	after := readCounters(sys)
	sys.eng.DrainUpgrades()

	res := &result{metrics: map[string]float64{}}
	var recs []rec
	var items []*verifyItem
	for _, w := range workers {
		res.attempted += w.issued
		res.failed += w.failed
		recs = append(recs, w.recs...)
		items = append(items, w.sample.items...)
		w.recs = nil
	}
	t := aggregate(recs, ticks)
	cfg.logf("measured %.2fs: %d ops, %d failed; the box ran %.2fx slower than nominal, and %.1f ops/s by the wall clock", elapsed.Seconds(), len(recs), res.failed, t.slow, t.rawOpsPerS)
	recs = nil

	if cfg.trace {
		if t.writes > 0 {
			cfg.logf("write p50 %.4f ms", t.writeP50)
		}
		res.metrics = traceReport(cfg, tr, workers, before, after, elapsed)
		if cfg.traceOut != "" {
			if err := tr.writeSpans(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	} else {
		m := res.metrics
		m["setup_s"] = median(setupS)
		m["ops_per_s"] = t.opsPerS
		m["query_p50_ms"], m["query_p95_ms"] = t.queryP50, t.queryP95
		m["first_page_p50_ms"] = t.firstPageP50
		m["fetched_per_op"] = float64(after.store.TuplesFetched-before.store.TuplesFetched) / float64(t.reads)
		m["alloc_kb_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc-perKernel*uint64(len(ticks))) / 1024 / float64(res.attempted)
		runtime.GC()
		runtime.GC()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		m["heap_live_mb"] = float64(mem.HeapAlloc) / (1 << 20)
		m["write_p50_ms"] = t.writeP50
		if sys.ss == nil {
			start := time.Now()
			p50, bad := writeProbe(sys, cfg.seed)
			cfg.logf("write probe: %d batches in %.2fs", probeWrites, time.Since(start).Seconds())
			m["write_p50_ms"] = p50
			res.attempted += probeWrites
			res.failed += bad
		}
	}

	// Correctness: the sampled answers against the reference evaluator,
	// and for the durable store the same answers, and every tuple, again
	// after a restart.
	start := time.Now()
	bad, err := verify(sys, items, cfg.logf)
	if err != nil {
		return nil, err
	}
	cfg.logf("checked %d sampled answers against baseline.IndexLoop, %d of them against baseline.HashJoin too, in %.2fs",
		len(items), min(len(items), hashJoined), time.Since(start).Seconds())
	res.attempted += int64(len(items))
	res.failed += int64(bad)
	if sys.ss != nil {
		want, err := contentHash(sys.ss)
		if err != nil {
			return nil, err
		}
		took, err := sys.reopen()
		if err != nil {
			return nil, fmt.Errorf("reopening the durable store: %w", err)
		}
		got, err := contentHash(sys.ss)
		if err != nil {
			return nil, err
		}
		lost := 0
		if got != want {
			lost = 1
			cfg.logf("durability: store content changed across the restart (%x != %x)", got, want)
		}
		bad, err := reask(sys, items)
		if err != nil {
			return nil, err
		}
		res.attempted += int64(len(items)) + 1
		res.failed += int64(bad + lost)
		cfg.logf("restart: recovered in %.3fs, %d sampled answers re-checked", took.Seconds(), len(items))
		if cfg.trace {
			res.metrics["live.reopen_s"] = took.Seconds()
		}
	}
	return res, nil
}
