// Command bqserve serves bounded-query answers over HTTP: it builds one
// of the built-in datasets, wraps it in a live (or sharded) store and a
// prepared-query engine, and exposes the serving layer's JSON endpoints
// — /query, /prepare, /ingest, /stats, /healthz.
//
// Usage:
//
//	bqserve -dataset social -scale 0.25 -addr :8080
//	bqserve -dataset tfacc -scale 0.5 -shards 4 -workers 32
//
// Quickstart against a running server:
//
//	curl -s localhost:8080/query -d '{
//	  "query": "select photo_id from in_album where album_id = ?",
//	  "args": [3]
//	}'
//	curl -s localhost:8080/ingest -d '{
//	  "ops": [{"op": "insert", "rel": "friends", "tuple": [1, 2]}]
//	}'
//	curl -s localhost:8080/stats
//
// Large answers can be paged: "limit": N streams the first N answers as
// they are produced and returns a next_cursor token; posting {"cursor":
// "<token>"} continues the scan on the same pinned snapshot, so every
// page reads one consistent epoch no matter how much ingest lands
// between requests. -cursor-cap and -cursor-ttl bound the snapshots the
// server pins for absent clients.
//
//	curl -s localhost:8080/query -d '{
//	  "query": "select photo_id from in_album where album_id = ?",
//	  "args": [3], "limit": 100
//	}'
//	curl -s localhost:8080/query -d '{"cursor": "<next_cursor from the page above>"}'
//
// A malformed body is answered 400 with {"error": "..."}: invalid JSON,
// an unknown member, a member of the wrong type (limit and timeout_ms
// must be int64 integers, debug a boolean), anything but whitespace
// after the request object, or a body over 8 MiB. Member names match
// case-insensitively, and the last of repeated members wins. An argument
// or tuple element that is not null, an integer or a string is a 400
// naming its position ("argument 1: ...", "op 0, attribute 2: ...").
//
// Hot queries are answered from a result cache that keeps an answer until
// a write touches an index group it read: every commit stamps the version
// words of the groups it rewrote before it publishes its epoch, so a hit
// is checked against them and is never stale (paged responses bypass the
// cache). The worker
// pool bounds concurrent executions (-workers), queues up to -queue
// requests beyond that, rejects the rest with 503, and enforces a
// per-request deadline (-timeout, or the request's timeout_ms).
//
// Durability is opt-in: -data-dir names a directory where the store
// keeps one write-ahead log (one record and one fsync per committed
// batch, whichever shards it touches) and every shard its checkpoint
// segments. A fresh directory is seeded from -dataset/-scale; an
// existing one is recovered — newest valid checkpoint plus WAL tail —
// and the dataset flags are ignored for data. -shards must then match
// the directory's manifest (omit it to accept the manifest's count).
// SIGINT/SIGTERM shuts down gracefully: in-flight requests drain, open
// cursors close, the store checkpoints and fsyncs, so a restart replays
// zero WAL records.
//
//	bqserve -dataset social -scale 0.25 -data-dir /var/lib/bcq -shards 4
//
// Observability is opt-in: -metrics exposes every subsystem's counters,
// gauges and latency histograms in Prometheus text format at GET
// /metrics; -slow-query-log appends one JSON line per sampled slow query
// (threshold -slow-threshold, 1-in--slow-sample) with the fingerprint,
// the plan's estimate-versus-actual accounting and the span tree; and
// -pprof-addr serves net/http/pprof on a separate listener so profiling
// never shares the query port.
//
// A retention tier sits on top: with -metrics the server also samples
// the registry on a ticker and serves windowed metric history at GET
// /debug/timeseries (-timeseries-interval, -timeseries-window);
// -trace-retention N keeps the complete span trees of up to N
// slow/errored/outlier queries, addressable at GET /debug/traces/{id}
// — every slow-log line's trace_id resolves there; -slo-latency arms
// multi-window burn-rate detection (latency + error SLOs) whose
// verdict folds into GET /healthz as "degraded". -slow-log-max-bytes
// bounds the slow-log file with rename-and-truncate rotation.
//
//	bqserve -dataset social -metrics \
//	  -slow-query-log slow.jsonl -slow-threshold 50ms -slow-log-max-bytes 10485760 \
//	  -trace-retention 256 -slo-latency 250ms \
//	  -pprof-addr localhost:6060
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bcq/internal/datagen"
	"bcq/internal/engine"
	"bcq/internal/live"
	"bcq/internal/obs"
	"bcq/internal/serve"
	"bcq/internal/shard"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataset := flag.String("dataset", "social", "dataset: social | tfacc | mot | tpch")
	scale := flag.Float64("scale", 0.25, "scale factor")
	shards := flag.Int("shards", 1, "partition the store into P shards (1 = single live store)")
	dataDir := flag.String("data-dir", "", "durable store directory: one WAL for the store + checkpoint segments per shard; an existing store is recovered (dataset/scale only seed a fresh directory)")
	workers := flag.Int("workers", 0, "concurrently executing requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queued requests beyond the workers (0 = 8 x workers)")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-request deadline")
	cacheSize := flag.Int("cache", serve.DefaultResultCacheSize, "result cache entries (negative disables)")
	cursorCap := flag.Int("cursor-cap", serve.DefaultCursorCap, "max concurrently open pagination cursors (each pins one snapshot)")
	cursorTTL := flag.Duration("cursor-ttl", serve.DefaultCursorTTL, "idle pagination cursors expire after this long (then answer 410)")
	metrics := flag.Bool("metrics", false, "expose Prometheus-format metrics at GET /metrics")
	slowLog := flag.String("slow-query-log", "", "append sampled slow queries as JSON lines to this file (- for stderr)")
	slowThreshold := flag.Duration("slow-threshold", 100*time.Millisecond, "queries at least this slow are slow-log candidates")
	slowSample := flag.Int("slow-sample", 1, "log every Nth slow-log candidate")
	slowLogMaxBytes := flag.Int64("slow-log-max-bytes", 0, "rotate the slow-query log file past this size (0 = never; keeps one .1 generation)")
	tsInterval := flag.Duration("timeseries-interval", obs.DefaultSampleInterval, "metric-history sampling period for GET /debug/timeseries (needs -metrics)")
	tsWindow := flag.Int("timeseries-window", obs.DefaultSampleWindow, "retained samples per metric series")
	traceRetention := flag.Int("trace-retention", 0, "retain up to N slow/errored/outlier traces for GET /debug/traces (0 disables)")
	sloLatency := flag.Duration("slo-latency", 0, "latency SLO threshold; burn-rate detection folds into /healthz (0 disables SLOs)")
	sloLatencyBudget := flag.Float64("slo-latency-budget", obs.DefaultLatencyBudget, "tolerated fraction of requests over the latency threshold")
	sloErrorBudget := flag.Float64("slo-error-budget", obs.DefaultErrorBudget, "tolerated fraction of 5xx responses")
	sloShort := flag.Duration("slo-short", obs.DefaultShortWindow, "short burn-rate window")
	sloLong := flag.Duration("slo-long", obs.DefaultLongWindow, "long burn-rate window (capped at 1h)")
	sloBurn := flag.Float64("slo-burn", obs.DefaultBurnThreshold, "degraded when both windows burn at least this many times the budget")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (empty disables)")
	flag.Parse()
	shardsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})

	srv, info, err := buildServer(config{
		dataset:          *dataset,
		scale:            *scale,
		shards:           *shards,
		shardsSet:        shardsSet,
		dataDir:          *dataDir,
		workers:          *workers,
		queue:            *queue,
		timeout:          *timeout,
		cacheSize:        *cacheSize,
		cursorCap:        *cursorCap,
		cursorTTL:        *cursorTTL,
		metrics:          *metrics,
		slowLog:          *slowLog,
		slowThreshold:    *slowThreshold,
		slowSample:       *slowSample,
		slowLogMaxBytes:  *slowLogMaxBytes,
		tsInterval:       *tsInterval,
		tsWindow:         *tsWindow,
		traceRetention:   *traceRetention,
		sloLatency:       *sloLatency,
		sloLatencyBudget: *sloLatencyBudget,
		sloErrorBudget:   *sloErrorBudget,
		sloShort:         *sloShort,
		sloLong:          *sloLong,
		sloBurn:          *sloBurn,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bqserve:", err)
		os.Exit(1)
	}
	if *pprofAddr != "" {
		// pprof rides http.DefaultServeMux (the blank net/http/pprof
		// import) on its own listener so profiling endpoints are never
		// reachable through the query port.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "bqserve: pprof:", err)
			}
		}()
		fmt.Printf("pprof on %s\n", *pprofAddr)
	}
	fmt.Println(info)
	fmt.Printf("listening on %s\n", *addr)

	// Graceful shutdown: SIGINT/SIGTERM drains the worker pool, closes
	// open cursors, checkpoints and fsyncs the store's WAL
	// (serve.Server.Shutdown), then stops the listener — so a restart
	// replays zero WAL records.
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		fmt.Println("bqserve: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "bqserve: shutdown:", err)
		}
		_ = httpSrv.Shutdown(ctx)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "bqserve:", err)
		os.Exit(1)
	}
}

// config carries the validated flag set.
type config struct {
	dataset          string
	scale            float64
	shards           int
	shardsSet        bool
	dataDir          string
	workers          int
	queue            int
	timeout          time.Duration
	cacheSize        int
	cursorCap        int
	cursorTTL        time.Duration
	metrics          bool
	slowLog          string
	slowThreshold    time.Duration
	slowSample       int
	slowLogMaxBytes  int64
	tsInterval       time.Duration
	tsWindow         int
	traceRetention   int
	sloLatency       time.Duration
	sloLatencyBudget float64
	sloErrorBudget   float64
	sloShort         time.Duration
	sloLong          time.Duration
	sloBurn          float64
}

func (c config) validate() error {
	if c.scale <= 0 {
		return fmt.Errorf("-scale %g: scale factor must be > 0", c.scale)
	}
	if c.shards < 1 {
		return fmt.Errorf("-shards %d: shard count must be ≥ 1", c.shards)
	}
	if c.workers < 0 || c.queue < 0 {
		return fmt.Errorf("-workers/-queue must be ≥ 0")
	}
	if c.cursorCap < 0 {
		return fmt.Errorf("-cursor-cap %d: open-cursor capacity must be ≥ 0 (0 = default)", c.cursorCap)
	}
	if c.cursorTTL < 0 {
		return fmt.Errorf("-cursor-ttl %v: cursor lifetime must be ≥ 0 (0 = default)", c.cursorTTL)
	}
	if c.slowThreshold < 0 {
		return fmt.Errorf("-slow-threshold %v: threshold must be ≥ 0", c.slowThreshold)
	}
	if c.slowSample < 0 {
		return fmt.Errorf("-slow-sample %d: sampling rate must be ≥ 0 (0 = every candidate)", c.slowSample)
	}
	if c.slowLogMaxBytes < 0 {
		return fmt.Errorf("-slow-log-max-bytes %d: rotation size must be ≥ 0 (0 = never rotate)", c.slowLogMaxBytes)
	}
	if c.tsInterval < 0 || c.tsWindow < 0 {
		return fmt.Errorf("-timeseries-interval/-timeseries-window must be ≥ 0 (0 = default)")
	}
	if c.traceRetention < 0 {
		return fmt.Errorf("-trace-retention %d: retained-trace capacity must be ≥ 0 (0 = disabled)", c.traceRetention)
	}
	if c.sloLatency < 0 {
		return fmt.Errorf("-slo-latency %v: SLO threshold must be ≥ 0 (0 = disabled)", c.sloLatency)
	}
	if c.sloLatency > 0 {
		if c.sloLatencyBudget < 0 || c.sloLatencyBudget > 1 || c.sloErrorBudget < 0 || c.sloErrorBudget > 1 {
			return fmt.Errorf("-slo-latency-budget/-slo-error-budget must be in [0, 1]")
		}
		if c.sloShort < 0 || c.sloLong < 0 || c.sloBurn < 0 {
			return fmt.Errorf("-slo-short/-slo-long/-slo-burn must be ≥ 0 (0 = default)")
		}
	}
	return nil
}

func pickDataset(name string) (*datagen.Dataset, error) {
	switch name {
	case "social":
		return datagen.Social(), nil
	case "tfacc":
		return datagen.TFACC(), nil
	case "mot":
		return datagen.MOT(), nil
	case "tpch":
		return datagen.TPCH(), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}

// buildServer assembles dataset → store → engine → server, returning a
// one-line description of what is being served.
func buildServer(c config) (*serve.Server, string, error) {
	if err := c.validate(); err != nil {
		return nil, "", err
	}
	ds, err := pickDataset(c.dataset)
	if err != nil {
		return nil, "", err
	}

	// Observability is assembled before the store so instrumentation is
	// registered before any traffic: a registry when -metrics is set, a
	// slow-query log when a path is given, bundled into one Observer that
	// the serving layer consults (nil fields degrade to no-ops).
	ob := &obs.Observer{}
	if c.metrics {
		ob.Metrics = obs.NewRegistry()
		ob.TimeSeries = obs.NewTimeSeries(ob.Metrics, obs.TimeSeriesOptions{
			Interval: c.tsInterval,
			Window:   c.tsWindow,
		})
		ob.TimeSeries.Start()
	}
	if c.slowLog != "" {
		if c.slowLog == "-" {
			ob.SlowLog = obs.NewSlowLog(os.Stderr, c.slowThreshold, c.slowSample)
		} else {
			sl, err := obs.NewSlowLogFile(c.slowLog, c.slowThreshold, c.slowSample, c.slowLogMaxBytes)
			if err != nil {
				return nil, "", fmt.Errorf("-slow-query-log: %w", err)
			}
			ob.SlowLog = sl
		}
	}
	if c.traceRetention > 0 {
		ob.Traces = obs.NewTraceRecorder(obs.TraceRecorderOptions{
			Capacity:      c.traceRetention,
			SlowThreshold: c.slowThreshold,
		})
	}
	if c.sloLatency > 0 {
		ob.SLO = obs.NewSLO(obs.SLOOptions{
			LatencyThreshold: c.sloLatency,
			LatencyBudget:    c.sloLatencyBudget,
			ErrorBudget:      c.sloErrorBudget,
			ShortWindow:      c.sloShort,
			LongWindow:       c.sloLong,
			BurnThreshold:    c.sloBurn,
		})
	}

	opts := serve.Options{
		Workers:         c.workers,
		MaxQueue:        c.queue,
		DefaultTimeout:  c.timeout,
		ResultCacheSize: c.cacheSize,
		CursorCap:       c.cursorCap,
		CursorTTL:       c.cursorTTL,
		Obs:             ob,
	}
	engOpts := engine.Options{Metrics: ob.Metrics, Recorder: ob.Traces}

	var (
		eng    *engine.Engine
		kind   string
		tuples int64
	)
	switch {
	case c.dataDir != "":
		// Durable store: recover an existing directory (the dataset's
		// tuples already live there — -scale only seeds a fresh one) or
		// create and seed it. A single-shard store uses the same layout
		// with P = 1, so the directory stays openable either way.
		var (
			ss  *shard.Store
			rec *shard.Recovery
		)
		if _, merr := shard.ReadManifest(c.dataDir); merr == nil {
			want := 0 // accept the manifest's count unless -shards was given
			if c.shardsSet {
				want = c.shards
			}
			ss, rec, err = shard.Open(c.dataDir, ds.Catalog, ds.Access, shard.Options{Shards: want})
			if err != nil {
				return nil, "", err
			}
		} else if !errors.Is(merr, fs.ErrNotExist) {
			return nil, "", merr
		} else {
			db, err := ds.Build(c.scale)
			if err != nil {
				return nil, "", err
			}
			ss, err = shard.New(db, ds.Access, shard.Options{Shards: c.shards, Dir: c.dataDir})
			if err != nil {
				return nil, "", err
			}
		}
		ss.Instrument(ob.Metrics)
		eng, err = engine.NewSharded(ss, engOpts)
		if err != nil {
			ss.Close()
			return nil, "", err
		}
		opts.Ingest = ss.Apply
		opts.Metrics = ss
		opts.CloseStore = ss.Close
		tuples = ss.NumTuples()
		kind = fmt.Sprintf("durable store (P=%d, dir %s)", ss.NumShards(), c.dataDir)
		if rec != nil && !rec.Fresh {
			kind += fmt.Sprintf(", recovered: %d WAL ops replayed", rec.ReplayedOps)
		}
	case c.shards > 1:
		db, err := ds.Build(c.scale)
		if err != nil {
			return nil, "", err
		}
		ss, err := shard.New(db, ds.Access, shard.Options{Shards: c.shards})
		if err != nil {
			return nil, "", err
		}
		ss.Instrument(ob.Metrics)
		eng, err = engine.NewSharded(ss, engOpts)
		if err != nil {
			return nil, "", err
		}
		opts.Ingest = ss.Apply
		opts.Metrics = ss
		tuples = db.NumTuples()
		kind = fmt.Sprintf("sharded store (P=%d)", c.shards)
	default:
		db, err := ds.Build(c.scale)
		if err != nil {
			return nil, "", err
		}
		ls, err := live.New(db, ds.Access, live.Options{})
		if err != nil {
			return nil, "", err
		}
		ls.Instrument(ob.Metrics)
		eng, err = engine.NewLive(ls, engOpts)
		if err != nil {
			return nil, "", err
		}
		opts.Ingest = func(ops []live.Op) error {
			_, err := ls.Apply(ops)
			return err
		}
		opts.Metrics = ls
		tuples = db.NumTuples()
		kind = "live store"
	}
	srv, err := serve.New(eng, opts)
	if err != nil {
		return nil, "", err
	}
	info := fmt.Sprintf("serving %s at scale %g over a %s: |D| = %d tuples, %d access constraints",
		ds.Name, c.scale, kind, tuples, ds.Access.Size())
	return srv, info, nil
}
