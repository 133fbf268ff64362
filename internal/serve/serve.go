// Package serve is the concurrent serving layer over the prepared-query
// engine: an HTTP/JSON server that multiplexes many clients onto the
// bounded executor and caches hot answers without ever serving a stale
// one.
//
// The paper's guarantee makes each query cheap — a bounded plan touches
// an amount of data independent of |D| — but a service also has to make
// many queries cheap at once. The server adds the three service-side
// mechanisms the engine itself does not provide:
//
//   - admission control: a worker pool of fixed width bounds how many
//     requests execute at once, each on its own handler goroutine;
//     excess requests queue up to a bounded depth and are rejected with
//     503 beyond it, so an overload degrades crisply instead of
//     collapsing the process. Every request carries a deadline (the
//     server default, or the request's timeout_ms), enforced until its
//     work starts and between the tuples of a page; a started
//     execution, prepare or write is bounded and runs to its real
//     outcome. Admission covers everything that
//     analyses, plans, executes or writes. A /query whose answer is
//     cached is not work: it is answered on the handler goroutine before
//     admission (the fast lane), without asking the engine, and never
//     queues — a saturated server keeps serving what it already knows
//     and sheds only what it would have to compute.
//   - a result cache that keeps an answer until a write touches what it
//     read: answers are cached under the request body, byte for byte,
//     with the version words of every index group the execution probed.
//     A commit stamps the words of the groups it rewrote before it
//     publishes its epoch, so a hit — checked against the words on the
//     view the request pinned — is byte-identical to executing on that
//     view, however many unrelated writes have landed since the answer
//     was computed. (See cache.go, and DESIGN.md §8 for the ordering
//     argument.)
//   - observability: /stats exposes the engine counters, per-relation
//     access statistics, result-cache hit rates and server-side queue
//     counters.
//
// Endpoints (all JSON): POST /query, POST /prepare, POST /ingest,
// GET /stats, GET /healthz. cmd/bqserve wires a dataset into the server;
// examples/serving drives it with concurrent clients under ingest churn.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bcq/internal/engine"
	"bcq/internal/exec"
	"bcq/internal/live"
	"bcq/internal/obs"
	"bcq/internal/stats"
	"bcq/internal/storage"
	"bcq/internal/value"
)

// StoreMetrics is the observability surface a store offers /stats.
// *storage.Database, *live.Store and *shard.Store all satisfy it.
type StoreMetrics interface {
	Stats() storage.Stats
	RelStats() map[string]storage.Stats
}

// Options tunes a Server.
type Options struct {
	// Workers caps concurrently executing requests (≤ 0 means GOMAXPROCS).
	Workers int
	// MaxQueue caps requests waiting for a worker slot; beyond it requests
	// are rejected immediately with 503 (≤ 0 means 8 × Workers).
	MaxQueue int
	// DefaultTimeout is the per-request deadline, covering the wait for a
	// worker slot and a page's streaming (≤ 0 means 5s). A request's
	// timeout_ms overrides it.
	DefaultTimeout time.Duration
	// ResultCacheSize caps the result cache in entries (0 means the
	// default 4096; negative disables the cache).
	ResultCacheSize int
	// Ingest applies a write batch: wire shard.Store.Apply here (one
	// shard for a single store). Nil makes /ingest respond 501.
	Ingest func(ops []live.Op) error
	// Metrics adds store-side counters to /stats when non-nil.
	Metrics StoreMetrics
	// CursorCap caps concurrently open pagination cursors (0 means
	// DefaultCursorCap); beyond it the oldest cursor is evicted. Each
	// open cursor pins one snapshot.
	CursorCap int
	// CursorTTL is how long an idle cursor stays claimable (0 means
	// DefaultCursorTTL). Expired cursors answer 410 Gone.
	CursorTTL time.Duration
	// Obs wires the unified observability layer: a metrics registry
	// (served at GET /metrics, fed by every endpoint) and an optional
	// slow-query log. Share the registry with the engine
	// (engine.Options.Metrics) and the store (live/shard Instrument) so
	// one scrape covers the whole pipeline. Nil disables all of it.
	Obs *obs.Observer
	// CloseStore checkpoints and closes the store during Shutdown: wire
	// shard.Store.Close here. Nil means the store needs no closing
	// (in-memory or sealed).
	CloseStore func() error
}

// DefaultResultCacheSize is the result-cache capacity when Options
// leaves it unset.
const DefaultResultCacheSize = 4096

// Server is the HTTP serving layer over one engine. It is safe for
// concurrent use; construct it with New and mount Handler.
type Server struct {
	eng      *engine.Engine
	ingest   func(ops []live.Op) error
	metrics  StoreMetrics
	cache    *resultCache
	cursors  *cursorRegistry
	workers  int
	maxQueue int
	timeout  time.Duration

	// sem is the worker pool: each executing request holds one slot.
	sem chan struct{}
	// waiting counts requests holding-or-awaiting a slot; the admission
	// bound is workers + maxQueue.
	waiting atomic.Int64
	// closed flips once in Shutdown: new work is rejected 503 while
	// in-flight executions drain, and draining closes with it, turning
	// away requests already queued for a slot. closeStore then
	// checkpoints the store.
	closed     atomic.Bool
	draining   chan struct{}
	closeStore func() error

	// queries is striped: every /query adds to it, and a cached answer
	// adds to it and nothing else another client writes.
	queries   counter
	ingests   atomic.Int64
	overloads atomic.Int64
	timeouts  atomic.Int64

	// obs is the observability bundle; httpSec the pre-resolved
	// per-(endpoint, outcome) request-latency histograms and queueSec the
	// admission queue-wait histogram (all nil when disabled — see obs.go).
	obs      *obs.Observer
	httpSec  map[string]*obs.Histogram
	queueSec *obs.Histogram

	// testHold, when non-nil (tests only), holds every admitted request
	// on its slot, before its work starts, until the channel is closed or
	// its deadline fires — the probe for backpressure and deadline
	// behavior.
	testHold chan struct{}

	// routes maps each enabled endpoint's exact path to its instrumented
	// handler; traceByID answers the /debug/traces/ prefix (nil when no
	// trace recorder is wired). Built once in New and only read after.
	routes    map[string]http.HandlerFunc
	traceByID http.HandlerFunc
}

// New builds a server over an engine.
func New(eng *engine.Engine, opts Options) (*Server, error) {
	if eng == nil {
		return nil, fmt.Errorf("serve: engine is required")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxQueue := opts.MaxQueue
	if maxQueue <= 0 {
		maxQueue = 8 * workers
	}
	timeout := opts.DefaultTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	s := &Server{
		eng:        eng,
		ingest:     opts.Ingest,
		metrics:    opts.Metrics,
		obs:        opts.Obs,
		closeStore: opts.CloseStore,
		workers:    workers,
		maxQueue:   maxQueue,
		timeout:    timeout,
		sem:        make(chan struct{}, workers),
		draining:   make(chan struct{}),
		cursors:    newCursorRegistry(opts.CursorCap, opts.CursorTTL),
	}
	stripes := stripeCount()
	s.queries = newCounter(stripes)
	switch {
	case opts.ResultCacheSize < 0:
		// cache disabled
	case opts.ResultCacheSize == 0:
		s.cache = newResultCache(DefaultResultCacheSize, stripes)
	default:
		s.cache = newResultCache(opts.ResultCacheSize, stripes)
	}
	s.instrument()
	s.routes = map[string]http.HandlerFunc{
		"/query":   s.instrumented("query", s.handleQuery),
		"/prepare": s.instrumented("prepare", s.handlePrepare),
		"/ingest":  s.instrumented("ingest", s.handleIngest),
		"/stats":   s.instrumented("stats", s.handleStats),
		"/healthz": s.instrumented("healthz", s.handleHealthz),
	}
	if reg := s.obs.Reg(); reg != nil {
		s.routes["/metrics"] = s.instrumented("metrics", reg.Handler().ServeHTTP)
	}
	if s.obs.Series() != nil {
		s.routes["/debug/timeseries"] = s.instrumented("debug", s.handleDebugTimeseries)
	}
	if s.obs.TraceRec() != nil {
		s.routes["/debug/traces"] = s.instrumented("debug", s.handleDebugTraces)
		s.traceByID = s.instrumented("debug", s.handleDebugTraceByID)
	}
	return s, nil
}

// traceByIDPrefix is the one path prefix the server routes: a retained
// trace's ID follows it.
const traceByIDPrefix = "/debug/traces/"

// Handler returns the HTTP handler serving the endpoints. It dispatches
// on the request's exact path, with one map probe: a path that is not an
// endpoint's, including an unclean spelling of one (//query,
// /query/../query) or one with a trailing slash, is 404, never
// redirected. Paths under /debug/traces/ go to the trace lookup by ID.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.route) }

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	if h, ok := s.routes[path]; ok {
		h(w, r)
		return
	}
	if s.traceByID != nil && strings.HasPrefix(path, traceByIDPrefix) {
		s.traceByID(w, r)
		return
	}
	http.NotFound(w, r)
}

// Engine returns the engine the server fronts.
func (s *Server) Engine() *engine.Engine { return s.eng }

// CacheStats returns the result cache's counters (zero when disabled).
func (s *Server) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.stats()
}

// errOverloaded, errDeadline and errShutdown classify admission
// failures.
var (
	errOverloaded = errors.New("serve: queue full")
	errDeadline   = errors.New("serve: deadline exceeded")
	errShutdown   = errors.New("serve: shutting down")
)

// rejectAdmission writes the HTTP response for a failed acquire.
func (s *Server) rejectAdmission(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShutdown):
		apiError(w, http.StatusServiceUnavailable, "server is shutting down")
	case errors.Is(err, errOverloaded):
		apiError(w, http.StatusServiceUnavailable, "overloaded: %d requests in flight or queued", s.workers+s.maxQueue)
	default:
		apiError(w, http.StatusGatewayTimeout, "deadline exceeded while queued")
	}
}

// Shutdown drains the server and closes the store: new executions — and
// requests still queued for a slot — are rejected 503 immediately,
// in-flight requests run to completion (their worker slots are
// reacquired one by one, bounded by ctx), open
// pagination cursors are closed so the snapshots they pin release, and
// finally the CloseStore hook checkpoints and closes the store — after
// which a reopen replays zero WAL records. Safe to call more than once;
// later calls return nil without re-closing. Even when ctx expires
// mid-drain the store is still closed: every committed batch is already
// fsynced in the WAL, so cutting the drain short can cost a checkpoint,
// never data.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.draining)
	var drainErr error
	for i := 0; i < s.workers; i++ {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			drainErr = fmt.Errorf("serve: drain cut short: %w", ctx.Err())
			i = s.workers // stop draining, still close below
		}
	}
	s.cursors.closeAll()
	if s.closeStore != nil {
		if err := s.closeStore(); err != nil {
			return errors.Join(drainErr, err)
		}
	}
	return drainErr
}

// acquire admits a request into the worker pool: immediately rejected
// when queued-plus-executing requests already fill workers + maxQueue,
// waiting up to the deadline — or until ctx ends or Shutdown begins —
// otherwise. On nil return the caller owns one semaphore slot and one
// admission count; release both through release.
func (s *Server) acquire(ctx context.Context, deadline time.Time) error {
	if s.closed.Load() {
		s.overloads.Add(1)
		return errShutdown
	}
	if s.waiting.Add(1) > int64(s.workers+s.maxQueue) {
		s.waiting.Add(-1)
		s.overloads.Add(1)
		return errOverloaded
	}
	select {
	case s.sem <- struct{}{}:
		// A free slot: nothing to wait for, so no deadline timer either.
		if s.queueSec != nil {
			s.queueSec.Observe(0)
		}
		return nil
	default:
	}
	var start time.Time
	if s.queueSec != nil {
		start = time.Now()
	}
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
		if s.queueSec != nil {
			s.queueSec.Observe(time.Since(start).Seconds())
		}
		return nil
	case <-ctx.Done():
		s.waiting.Add(-1)
		s.timeouts.Add(1)
		return errDeadline
	case <-s.draining:
		// Shutdown may hold every slot by now, and then none comes back.
		s.waiting.Add(-1)
		s.overloads.Add(1)
		return errShutdown
	}
}

// release returns an acquired slot and its admission count.
func (s *Server) release() {
	<-s.sem
	s.waiting.Add(-1)
}

// deadline resolves a request's deadline from its timeout_ms, capped to
// nothing — the client owns its patience — and defaulting to the server
// timeout, counted from the request's arrival.
func (s *Server) deadline(arrival time.Time, ms int64) time.Time {
	d := s.timeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	return arrival.Add(d)
}

// apiError writes a JSON error with the given status.
func apiError(w http.ResponseWriter, status int, format string, args ...any) {
	writeHeader(w, status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// jsonType is the Content-Type of every JSON response. They all share the
// one slice, so that naming it allocates nothing: net/http copies a
// response's header when it writes it, and nothing writes through it.
var jsonType = []string{"application/json"}

// writeHeader sends a JSON response's status and header.
func writeHeader(w http.ResponseWriter, status int) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	handlerResult{status: status, v: v}.write(w)
}

// handlerResult is one handler body's outcome: an HTTP status and the
// JSON document to write — v to encode, or raw, already encoded.
type handlerResult struct {
	status int
	v      any
	raw    []byte
}

func (out handlerResult) write(w http.ResponseWriter) {
	writeHeader(w, out.status)
	if out.raw != nil {
		_, _ = w.Write(out.raw)
		return
	}
	_ = json.NewEncoder(w).Encode(out.v)
}

// errResult builds an error outcome.
func errResult(status int, format string, args ...any) handlerResult {
	return handlerResult{status: status, v: map[string]string{"error": fmt.Sprintf(format, args...)}}
}

// start admits a request and readies it to run by its deadline: acquire
// a slot, then pass the test hold and check the deadline (and ctx) once
// more — the last point either is enforced before work starts. On nil
// return the caller holds a slot and gives it back through release.
func (s *Server) start(ctx context.Context, deadline time.Time) error {
	if err := s.acquire(ctx, deadline); err != nil {
		return err
	}
	if s.testHold != nil {
		held, cancel := context.WithDeadline(ctx, deadline)
		select {
		case <-s.testHold:
		case <-held.Done():
		}
		cancel()
	}
	if ctx.Err() != nil || !time.Now().Before(deadline) {
		s.release()
		s.timeouts.Add(1)
		return errDeadline
	}
	return nil
}

// runOnWorker applies the admission policy to one request and runs fn on
// the handler goroutine, holding a worker slot: admit (503 when the queue
// is full or the server drains, 504 when the deadline fires first), then
// run fn to completion and write what it returns. A started fn is never
// abandoned: a bounded plan, a prepare and a write batch each cost what
// their bounds allow, so the request answers its real outcome — and a 504
// from /ingest means the batch was not applied. Every endpoint that
// executes or writes goes through here or servePage — /prepare's
// boundedness analysis and /ingest's admission checks are as CPU-real as
// query execution. The one thing that does not is a /query answered from
// the caches (handleQuery).
func (s *Server) runOnWorker(w http.ResponseWriter, r *http.Request, arrival time.Time, timeoutMS int64, fn func() handlerResult) {
	if err := s.start(r.Context(), s.deadline(arrival, timeoutMS)); err != nil {
		s.rejectAdmission(w, err)
		return
	}
	s.onSlot(fn).write(w)
}

// onSlot runs fn on the slot start acquired and gives the slot back
// before the answer is written, so a slow client holds no worker. A
// latent panic in fn costs one 500 and frees the slot all the same.
func (s *Server) onSlot(fn func() handlerResult) (out handlerResult) {
	defer s.release()
	defer func() {
		if p := recover(); p != nil {
			out = errResult(http.StatusInternalServerError, "internal error: %v", p)
		}
	}()
	return fn()
}

// handleQuery answers POST /query. The buffered path serves from the
// result cache when the entry under the request's body is current on the
// view it pins; otherwise it prepares (plan-cached) and executes. Requests
// with limit > 0 or a cursor take the streamed, paged path instead: the
// response is written as the stream produces answers and never touches
// the result cache — a page is a prefix of the answer, and caching a
// prefix would serve truncated answers to unlimited requests.
//
// The cache is probed with the body's bytes as they arrived, before the
// body is decoded: one hash and one probe of the CLOCK table, with no
// lock, on the handler goroutine and before admission. A probe that finds no entry
// pins no view and costs the request nothing else. A hit is written at
// once — no engine, no deadline context, no worker, no queue; it is not
// work, and a saturated server answers it all the same. An untraced hit
// decodes nothing: its envelope is written into the buffer the body was
// read into, which the key no longer needs. A traced or debug hit decodes
// the body for the plan its trace and Explain want (tracedHit). Anything
// else is decoded and validated and goes through runOnWorker, taking
// along what the probe resolved.
//
// An untraced hit reads no clock and stores to nothing another client
// writes: the counters it adds to are striped, on the stripe of its
// decoder. The arrival time is read on entry only when something will
// record the request's duration — the slow-query log or the trace
// recorder (timesRequests); otherwise a request reads it once it is
// past the probe, where its deadline and its trace start from the one
// reading.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var start time.Time
	if s.timesRequests() {
		start = time.Now()
	}
	d := decoders.Get().(*bodyDecoder)
	s.queries.add(d.stripe)
	if err := d.read(w, r); err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer d.release()
	lk := lookup{stripe: d.stripe}
	if s.cache != nil && len(d.buf) <= maxCachedBody {
		lk.key = d.buf
		// A draining server answers nothing new, cached or not.
		if !s.closed.Load() {
			s.probe(&lk)
		}
	}
	if lk.body != nil {
		tr := s.traceFor(r, lk.debug)
		if tr == nil {
			d.buf = appendEnvelope(d.buf[:0], lk.body, true, epochOf(lk.view), "", nil)
			writeHeader(w, http.StatusOK)
			_, _ = w.Write(d.buf)
			return
		}
		// The body decoded as this cacheable request when its answer was
		// stored, and identical bytes decode identically.
		req, _ := d.query()
		w.Header().Set("X-BQ-Trace-Id", tr.ID())
		s.tracedHit(req, lk, tr, start).write(w)
		return
	}
	if start.IsZero() {
		start = time.Now()
	}
	req, err := d.query()
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Limit < 0 {
		apiError(w, http.StatusBadRequest, "limit %d: must be ≥ 0 (0 = unlimited)", req.Limit)
		return
	}
	tr := s.traceFor(r, req.Debug)
	if tr != nil {
		w.Header().Set("X-BQ-Trace-Id", tr.ID())
	}
	if req.Cursor != "" {
		if req.Query != "" || len(req.Args) > 0 {
			apiError(w, http.StatusBadRequest, "a cursor continuation carries the whole scan; query and args must be absent")
			return
		}
		s.servePage(w, r, req, tr, start)
		return
	}
	if req.Query == "" {
		apiError(w, http.StatusBadRequest, "missing query text")
		return
	}
	if req.argErr != nil {
		apiError(w, http.StatusBadRequest, "%v", req.argErr)
		return
	}
	if req.Limit > 0 {
		s.servePage(w, r, req, tr, start)
		return
	}
	s.runOnWorker(w, r, start, req.TimeoutMS, func() handlerResult {
		return s.execQuery(req, tr, start, lk)
	})
}

// debugPayload is the opt-in diagnostics block of a /query response.
type debugPayload struct {
	// Explain is the executed plan with estimates, actuals and — when
	// traced — the span tree, in plan.Explain's text form.
	Explain string `json:"explain"`
	// Spans is the span tree in machine-readable form (Trace.JSON).
	Spans json.RawMessage `json:"spans,omitempty"`
}

// appendEnvelope appends the /query response document: the canonical
// payload wrapped with per-request metadata — the epoch of the view the
// request pinned, trace_id for a traced request, debug when the request
// asked for it. It writes byte for byte what json.Encoder writes for the
// struct of these fields (trailing newline included), without reflecting
// over it or re-compacting the payload, which is cached and replayed
// verbatim: two requests answered from one entry are byte-identical in
// the result field.
func appendEnvelope(dst, result []byte, cached bool, epoch epochKeyed, traceID string, debug *debugPayload) []byte {
	dst = append(dst, `{"result":`...)
	dst = append(dst, result...)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	dst = append(dst, `,"epoch":`...)
	dst = appendEpoch(dst, epoch)
	if traceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = appendJSONString(dst, traceID)
	}
	if debug != nil {
		dst = append(dst, `,"debug":`...)
		b, _ := json.Marshal(debug)
		dst = append(dst, b...)
	}
	return append(dst, "}\n"...)
}

// epochKeyed is a view that renders its epoch into a buffer: a live
// snapshot, a sharded view or a sealed database.
type epochKeyed interface{ AppendEpochKey(dst []byte) []byte }

// appendEpoch appends a view's epoch key as a JSON string ("" for a view
// with none). Keys are letters, digits, ':' and ',', which JSON leaves as
// they are, so the key is rendered straight into dst; anything else is
// re-quoted the way appendJSONString would.
func appendEpoch(dst []byte, epoch epochKeyed) []byte {
	if epoch == nil {
		return append(dst, `""`...)
	}
	at := len(dst)
	dst = epoch.AppendEpochKey(append(dst, '"'))
	if !jsonPlain(dst[at+1:]) {
		return appendJSONString(dst[:at], string(dst[at+1:]))
	}
	return append(dst, '"')
}

// epochOf is the view's epoch renderer, nil for a view with none.
func epochOf(view exec.Store) epochKeyed {
	ek, _ := view.(epochKeyed)
	return ek
}

// okResult wraps a payload as the 200 outcome of a /query answered on
// view.
func okResult(result []byte, cached bool, view exec.Store, tr *obs.Trace, debug *debugPayload) handlerResult {
	raw := make([]byte, 0, len(result)+112)
	return handlerResult{status: http.StatusOK, raw: appendEnvelope(raw, result, cached, epochOf(view), tr.ID(), debug)}
}

// lookup is what a /query resolved short of executing: its result-cache
// key (nil when its answer is not cached) and, when an entry was found
// under the key, the view pinned for it and the cached payload — or, when
// the entry was no longer current, stale. A zero view means no entry was
// found and nothing was pinned.
type lookup struct {
	// at is the engine's epoch token read before the view was pinned: as
	// long as the engine still reports it, the view is the current one.
	at   uint64
	view exec.Store
	key  []byte
	body []byte
	// debug is the entry's: the request under the key asks for the
	// diagnostics block.
	debug bool
	stale bool
	// stripe is the request's counter stripe (its decoder's).
	stripe uint32
}

// lookup asks the result cache for the entry under lk.key, a /query
// body, and fills in the rest of lk. Only an entry found pins a view, and
// the entry is checked against that view: a hit is the answer on exactly
// the view the response names, whichever goroutine runs this and however
// long the request then waits for a worker. Nothing here decodes the body
// or asks the engine for a plan, and nothing allocates.
func (s *Server) lookup(lk *lookup) {
	*lk = lookup{key: lk.key, stripe: lk.stripe}
	e, ok := s.cache.get(lk.key)
	if !ok {
		return
	}
	lk.at = s.eng.Epoch()
	lk.view = s.eng.View()
	lk.debug = e.debug
	if !e.current(lk.view) {
		lk.stale = true
		return
	}
	lk.body = e.body
}

// probe is lookup for a request whose counters go to lk.stripe: a hit is
// counted there, once, by whichever probe finds it current.
func (s *Server) probe(lk *lookup) {
	s.lookup(lk)
	if lk.body != nil {
		s.cache.hits.add(lk.stripe)
	}
}

// tracedHit finishes a traced or debug request the result cache answered:
// the trace and the Explain want the plan, so the request prepares — a
// plan-cache hit, unless the plan has been evicted since the answer was
// cached.
func (s *Server) tracedHit(req queryRequest, lk lookup, tr *obs.Trace, start time.Time) handlerResult {
	p, err := s.eng.PrepareTraced(req.Query, tr)
	if err != nil {
		s.considerError("query", "", tr, start)
		return errResult(http.StatusBadRequest, "%v", err)
	}
	return s.hitResult(req, p, lk, tr, start)
}

// hitResult finishes a request the result cache answered, with the plan p
// it prepared.
func (s *Server) hitResult(req queryRequest, p *engine.Prepared, lk lookup, tr *obs.Trace, start time.Time) handlerResult {
	var debug *debugPayload
	if tr != nil {
		tr.Root().Tag("result_cache", "hit")
		tr.Finish()
		if rec := s.obs.TraceRec(); rec != nil {
			rec.Consider(tr, obs.TraceMeta{
				Endpoint: "query", Fingerprint: p.Fingerprint(),
				Duration: time.Since(start), Outcome: "ok",
			})
		}
	}
	if req.Debug {
		debug = &debugPayload{Explain: p.Explain(nil), Spans: tr.JSON()}
	}
	return okResult(lk.body, true, lk.view, tr, debug)
}

// execQuery is the execute half of /query, on a worker slot: the prepare
// lookup left undone, and the execution itself. What lookup resolved is
// used as it stands, unless the store has moved while the request waited
// for its slot or prepared: then the view and the cache are asked again,
// so that a queued request executes at the epoch current when it runs, as
// it always has, and caches the answer on the newest view. A request whose
// probe found no entry pins its view here. A cacheable execution records
// its read set, which the entry keeps under the request's body.
func (s *Server) execQuery(req queryRequest, tr *obs.Trace, start time.Time, lk lookup) handlerResult {
	p, err := s.eng.PrepareTraced(req.Query, tr)
	if err != nil {
		s.considerError("query", "", tr, start)
		return errResult(http.StatusBadRequest, "%v", err)
	}
	if lk.view != nil && s.eng.Epoch() != lk.at {
		s.probe(&lk)
	}
	if lk.body != nil {
		return s.hitResult(req, p, lk, tr, start)
	}
	if lk.view == nil {
		lk.view = s.eng.View()
	}
	var reads *exec.ReadSet
	if lk.key != nil && epochOf(lk.view) != nil {
		// Counted here and not by the probe: a miss is a cacheable query
		// that had to execute, however many times the cache was asked.
		s.cache.misses.add(lk.stripe)
		if lk.stale {
			s.cache.invalidated.add(lk.stripe)
		}
		reads = readSets.Get().(*exec.ReadSet)
		defer func() {
			reads.Reset()
			readSets.Put(reads)
		}()
	}
	res, err := p.ExecReadOn(lk.view, tr, reads, req.Args...)
	if err != nil {
		s.considerError("query", p.Fingerprint(), tr, start)
		return errResult(http.StatusBadRequest, "%v", err)
	}
	body := appendResult(res)
	if reads != nil {
		s.cache.put(lk.key, newEntry(body, req.Debug, lk.view, reads.Words()))
	}
	tr.Finish()
	s.maybeSlowLog("query", p, res, tr, start, len(res.Tuples), "")
	var debug *debugPayload
	if req.Debug {
		debug = &debugPayload{Explain: p.Explain(res), Spans: tr.JSON()}
	}
	return okResult(body, false, lk.view, tr, debug)
}

// pageFlushEvery is how many streamed tuples are written between
// explicit flushes on the paged path; pageBufBytes is the page buffer's
// initial capacity — that many rows of a few short columns, and the
// framing.
const (
	pageFlushEvery = 64
	pageBufBytes   = 1024
)

// servePage is the streamed, paged form of /query: it opens a
// cursor-backed stream (or claims the cursor of a continuation) and
// writes the page as the stream produces it. The request occupies a
// worker slot on the handler goroutine like any execution; the bytes go
// straight to the client, chunked, and since a page's length is the
// client's choice, not a plan's bound, the deadline is also enforced
// between tuples.
func (s *Server) servePage(w http.ResponseWriter, r *http.Request, req queryRequest, tr *obs.Trace, start time.Time) {
	deadline := s.deadline(start, req.TimeoutMS)
	ctx, cancel := context.WithDeadline(r.Context(), deadline)
	defer cancel()
	if err := s.start(ctx, deadline); err != nil {
		s.rejectAdmission(w, err)
		return
	}
	defer s.release()

	var st *cursorState
	if req.Cursor != "" {
		st = s.cursors.claim(req.Cursor)
		if st == nil {
			apiError(w, http.StatusGone, "unknown or expired cursor (tokens are single-use; restart the scan)")
			return
		}
		if req.Limit > 0 {
			st.pageSize = int(req.Limit)
		}
	} else {
		p, err := s.eng.PrepareTraced(req.Query, tr)
		if err != nil {
			s.considerError("query", "", tr, start)
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Pin the view now; the cursor holds it for the scan's lifetime,
		// so every later page reads this exact snapshot. The trace (when
		// the request is traced) rides on the stream: later pages' waves
		// append to the same span tree, bounded by the trace's span cap.
		view := s.eng.View()
		stream, err := p.ExecStreamOn(view, exec.StreamOptions{Trace: tr}, req.Args...)
		if err != nil {
			s.considerError("query", p.Fingerprint(), tr, start)
			apiError(w, http.StatusBadRequest, "%v", err)
			return
		}
		st = &cursorState{
			stream:      stream,
			view:        view,
			fingerprint: p.Fingerprint(),
			pageSize:    int(req.Limit),
			prep:        p,
			trace:       tr,
		}
	}
	s.writePage(ctx, w, st, start)
}

// writePage streams one page of answers and a trailer with statistics
// and the continuation cursor, all one JSON document. The result field
// matches the buffered path's shape; stats are cumulative over the
// cursor's whole scan so the final page reports the full bounded fetch.
func (s *Server) writePage(ctx context.Context, w http.ResponseWriter, st *cursorState, start time.Time) {
	flusher, _ := w.(http.Flusher)
	writeHeader(w, http.StatusOK)

	var (
		n         int
		streamErr error
		timedOut  bool
		// tu is the one tuple every answer of the page is written into:
		// a row is encoded before the next answer is pulled.
		tu value.Tuple
		// buf holds what has been encoded since the last flush: the
		// header, rows, and at the end the trailer. It starts at
		// pageBufBytes: grown from nothing it is reallocated half a dozen
		// times on the way to one flush's worth, and how many bytes that
		// chain adds up to depends on the size class its first append
		// happens to land in.
		buf = appendPageHeader(make([]byte, 0, pageBufBytes), st.stream.Cols())
	)
	// A receive on Done, not ctx.Err(), which locks the context's mutex
	// on every row.
	done := ctx.Done()
page:
	for n < st.pageSize {
		select {
		case <-done:
			// Mid-page deadline: close the page honestly and hand back a
			// cursor so the client resumes where the budget ran out.
			timedOut = true
			s.timeouts.Add(1)
			break page
		default:
		}
		var ok bool
		var err error
		tu, ok, err = st.stream.Next(tu...)
		if err != nil {
			streamErr = err
			break
		}
		if !ok {
			break
		}
		if n > 0 {
			buf = append(buf, ',')
		}
		buf = appendRow(buf, tu)
		n++
		if n%pageFlushEvery == 0 {
			_, _ = w.Write(buf)
			buf = buf[:0]
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	res := st.stream.Result()
	complete := streamErr == nil && !timedOut && st.stream.Done()
	next := ""
	if streamErr == nil && !complete {
		if tok, err := s.cursors.put(st); err == nil {
			next = tok
		} else {
			streamErr = err
		}
	}
	outcome, errMsg := "", ""
	switch {
	case streamErr != nil:
		outcome, errMsg = "error", streamErr.Error()
	case timedOut:
		outcome, errMsg = "timeout", "deadline exceeded mid-page; resume with next_cursor"
	}
	buf = appendPageTrailer(buf, res, epochOf(st.view), next, complete, st.trace.ID(), errMsg)
	if st.prep != nil {
		// Page durations qualify for the slow log like buffered answers;
		// the entry's stats are cumulative over the cursor's whole scan.
		s.maybeSlowLog("query", st.prep, res, st.trace, start, n, outcome)
	}
	_, _ = w.Write(buf)
	if flusher != nil {
		flusher.Flush()
	}
}

// appendPageHeader opens a page document up to its first tuple, byte for
// byte what fmt and json.Marshal(cols) rendered before it.
func appendPageHeader(dst []byte, cols []string) []byte {
	return appendResultHead(append(dst, `{"result":`...), cols)
}

// appendPageTrailer closes a page document after its last tuple: the
// cumulative statistics, the page's disposition and, for a page cut short,
// the error — byte for byte the json.Marshal and fmt rendering it replaces
// (TestPageFramingMatchesEncodingJSON).
func appendPageTrailer(dst []byte, res *exec.Result, epoch epochKeyed, next string, complete bool, traceID, errMsg string) []byte {
	dst = appendResultTail(dst, res)
	dst = append(dst, `,"cached":false,"epoch":`...)
	dst = appendEpoch(dst, epoch)
	dst = append(dst, `,"next_cursor":`...)
	dst = appendJSONString(dst, next)
	dst = append(dst, `,"complete":`...)
	dst = strconv.AppendBool(dst, complete)
	if traceID != "" {
		dst = append(dst, `,"trace_id":`...)
		dst = appendJSONString(dst, traceID)
	}
	if errMsg != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, errMsg)
	}
	return append(dst, "}\n"...)
}

// jsonString renders a string as its JSON literal.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s)
	return b
}

// handlePrepare answers POST /prepare: plan (or reuse the cached plan
// for) a query shape and report its fingerprint and fetch bound. The
// boundedness analysis runs on a worker slot like any execution.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	query, err := decodeRequest(w, r, (*bodyDecoder).prepare)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.runOnWorker(w, r, time.Now(), 0, func() handlerResult {
		p, err := s.eng.Prepare(query)
		if err != nil {
			return errResult(http.StatusUnprocessableEntity, "%v", err)
		}
		// est_fetch, fetch_order, explain and the stats fingerprint all
		// describe the plan that executes now: after a drift re-plan,
		// Prepare returns the rebuilt one.
		pl := p.Plan()
		order := make([]string, len(pl.Steps))
		for i, st := range pl.Steps {
			order[i] = fmt.Sprintf("%s via %s", pl.Query.Atoms[st.Atom].Alias, st.AC)
		}
		return handlerResult{status: http.StatusOK, v: struct {
			Fingerprint string   `json:"fingerprint"`
			NumParams   int      `json:"num_params"`
			PlanTier    string   `json:"plan_tier"`
			FetchBound  string   `json:"fetch_bound"`
			PlanSteps   int      `json:"plan_steps"`
			EstFetch    float64  `json:"est_fetch"`
			FetchOrder  []string `json:"fetch_order"`
			StatsFP     string   `json:"stats_fingerprint"`
			Explain     string   `json:"explain"`
		}{
			Fingerprint: p.Fingerprint(),
			NumParams:   p.NumParams(),
			PlanTier:    string(pl.Tier),
			FetchBound:  pl.FetchBound.String(),
			PlanSteps:   len(pl.Steps),
			EstFetch:    pl.EstFetch,
			FetchOrder:  order,
			StatsFP:     p.StatsFingerprint(),
			Explain:     pl.Explain(),
		}}
	})
}

// handleIngest answers POST /ingest, applying a write batch through the
// wired store (501 when the engine serves a sealed database). The write
// runs on a worker slot: admission checking and copy-on-write index
// maintenance are real work. A 504 means the batch was never applied; a
// batch that started answers how it ended.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		apiError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.ingest == nil {
		apiError(w, http.StatusNotImplemented, "store is sealed: no ingest path configured")
		return
	}
	s.ingests.Add(1)
	ops, err := decodeRequest(w, r, (*bodyDecoder).ingest)
	if err != nil {
		apiError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.runOnWorker(w, r, time.Now(), 0, func() handlerResult {
		if err := s.ingest(ops); err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, live.ErrBound) || errors.Is(err, live.ErrNoSuchTuple) {
				status = http.StatusConflict
			}
			return errResult(status, "%v", err)
		}
		return handlerResult{status: http.StatusOK, v: struct {
			Applied int    `json:"applied"`
			Epoch   string `json:"epoch"`
		}{Applied: len(ops), Epoch: s.eng.EpochKey()}}
	})
}

// handleStats answers GET /stats. Every counter read here is an atomic
// load (server atomics, cursor registry atomics, engine Stats, storage
// Stats) or taken under the owning mutex (cursor count, cache entries):
// a scrape concurrent with serving sees no torn values, which the -race
// scrape-under-churn test exercises.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		apiError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st := statsResponse{
		Engine: s.eng.Stats(),
		Cache:  s.CacheStats(),
		Server: serverStats{
			Queries:   s.queries.Load(),
			Ingests:   s.ingests.Load(),
			Overloads: s.overloads.Load(),
			Timeouts:  s.timeouts.Load(),
			InFlight:  s.waiting.Load(),
			Workers:   s.workers,
			MaxQueue:  s.maxQueue,

			CursorsOpen:    s.cursors.open(),
			CursorsExpired: s.cursors.expired.Load(),
			CursorsEvicted: s.cursors.evicted.Load(),
		},
		// The epoch of the view a query would pin now: one atomic load,
		// so a metrics prober never waits for a writer.
		Epoch: s.eng.EpochKey(),
	}
	// Cardinality statistics: what the cost-based planner sees right now
	// (lock-free reads, like the rest of /stats).
	card := s.eng.CardStats()
	st.Cardinality = &card
	if s.metrics != nil {
		if n, ok := s.metrics.(interface{ NumTuples() int64 }); ok {
			st.NumTuples = n.NumTuples()
		}
		acc := s.metrics.Stats()
		st.Access = &acc
		st.Relations = s.metrics.RelStats()
	}
	st.Latency = s.endpointLatency()
	writeJSON(w, http.StatusOK, st)
}

// EndpointLatency is one endpoint's request-latency summary in /stats,
// extracted from the same histograms /metrics exposes (all outcomes
// merged — the client's experience includes the errors).
type EndpointLatency struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// endpointLatency merges each endpoint's per-outcome histograms into
// cumulative quantiles (nil without metrics). Same-layout histograms
// merge by summing bucket counts — see obs.QuantileFromCounts.
func (s *Server) endpointLatency() map[string]EndpointLatency {
	if s.httpSec == nil {
		return nil
	}
	out := make(map[string]EndpointLatency, len(httpEndpoints))
	for _, ep := range httpEndpoints {
		var merged []int64
		var count int64
		for _, oc := range httpOutcomes {
			h := s.httpSec[ep+"\x00"+oc]
			if h == nil {
				continue
			}
			counts := h.BucketCounts()
			if merged == nil {
				merged = counts
			} else {
				for i := range counts {
					merged[i] += counts[i]
				}
			}
		}
		for _, n := range merged {
			count += n
		}
		if count == 0 {
			continue
		}
		const toMS = 1e3
		out[ep] = EndpointLatency{
			Count: count,
			P50MS: obs.QuantileFromCounts(obs.LatencyBuckets, merged, 0.50) * toMS,
			P95MS: obs.QuantileFromCounts(obs.LatencyBuckets, merged, 0.95) * toMS,
			P99MS: obs.QuantileFromCounts(obs.LatencyBuckets, merged, 0.99) * toMS,
		}
	}
	return out
}

// serverStats is the admission-side counter block of /stats.
type serverStats struct {
	Queries   int64 `json:"queries"`
	Ingests   int64 `json:"ingests"`
	Overloads int64 `json:"overloads"`
	Timeouts  int64 `json:"timeouts"`
	InFlight  int64 `json:"in_flight"`
	Workers   int   `json:"workers"`
	MaxQueue  int   `json:"max_queue"`

	// Pagination-cursor registry counters.
	CursorsOpen    int   `json:"cursors_open"`
	CursorsExpired int64 `json:"cursors_expired"`
	CursorsEvicted int64 `json:"cursors_evicted"`
}

// statsResponse is the /stats document.
type statsResponse struct {
	Engine      engine.Stats             `json:"engine"`
	Cache       CacheStats               `json:"result_cache"`
	Server      serverStats              `json:"server"`
	Epoch       string                   `json:"epoch"`
	NumTuples   int64                    `json:"num_tuples"`
	Access      *storage.Stats           `json:"access,omitempty"`
	Relations   map[string]storage.Stats `json:"relations,omitempty"`
	Cardinality *stats.Snapshot          `json:"cardinality,omitempty"`
	// Latency summarizes each endpoint's request-latency histograms
	// (p50/p95/p99, all outcomes merged); nil without metrics.
	Latency map[string]EndpointLatency `json:"latency,omitempty"`
}

// handleHealthz answers GET /healthz with a readiness payload: the
// current epoch key, the store's shard count, and the worker pool's
// saturation (in-flight over the admission bound — 1.0 means the next
// request is rejected 503). With an SLO monitor wired, the payload adds
// the burn-rate verdict: status "degraded" (with reasons and both
// windows' burn rates) when short AND long windows burn past threshold.
// OK stays true — it is liveness, not the SLO verdict; orchestrators
// keying restarts off ok must not flap on a latency regression.
// Everything comes from atomics — the epoch from the view a query would
// pin now, one load — and no lock, so probers never wait for writers or
// serving traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inFlight := s.waiting.Load()
	payload := struct {
		OK         bool            `json:"ok"`
		Status     string          `json:"status"`
		Epoch      string          `json:"epoch"`
		Shards     int             `json:"shards"`
		Workers    int             `json:"workers"`
		MaxQueue   int             `json:"max_queue"`
		InFlight   int64           `json:"in_flight"`
		Saturation float64         `json:"saturation"`
		SLO        *obs.SLOVerdict `json:"slo,omitempty"`
	}{
		OK:         true,
		Status:     "ok",
		Epoch:      s.eng.EpochKey(),
		Shards:     s.eng.Shards(),
		Workers:    s.workers,
		MaxQueue:   s.maxQueue,
		InFlight:   inFlight,
		Saturation: float64(inFlight) / float64(s.workers+s.maxQueue),
	}
	if slo := s.obs.SLOMonitor(); slo != nil {
		v := slo.Verdict()
		payload.SLO = &v
		if v.Degraded {
			payload.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, payload)
}
