// Command bqrun generates one of the built-in datasets, evaluates a query
// both ways — bounded (evalDQ through the prepared-query engine) and
// conventional (full-data baseline) — and compares answers and data
// access.
//
// Usage:
//
//	bqrun -dataset social -scale 0.5 -query q0.sql
//	bqrun -dataset tfacc -scale 1 -workload       # run the 15-query workload
//	bqrun -dataset social -scale 0.5 -query q0.sql -ingest 100000
//	bqrun -dataset social -scale 0.5 -query q0.sql -shards 4 -ingest 100000
//	bqrun -dataset tfacc -scale 1 -workload -limit 5      # stop after 5 answers
//
// The -limit N flag re-runs each query through the early-terminating
// streaming executor: fetching stops as soon as N distinct answers
// exist, the report shows the probes the limit saved, and the limited
// answers are cross-checked as a subset of the full answer.
//
// The -trace-out FILE flag runs every query traced and appends each
// span tree as one machine-readable JSON line ({"trace_id", "root"}) —
// the same rendering the serving layer retains at /debug/traces/{id} —
// so offline runs feed the same tooling as production traces.
//
// Datasets: social (Example 1), tfacc, mot, tpch.
//
// The -ingest N flag switches to live mode: the dataset is wrapped in the
// writable store (one shard unless -shards says more), N tuples are
// streamed in (duplicates of existing tuples, so the access schema is
// never violated — the same duplication mechanism datagen scales |D|
// with) while the queries keep executing against pinned cuts, and the
// run reports ingest throughput plus the before/after tuple-access
// counts, which stay flat as |D| grows.
//
// The -shards P flag partitions the store: each relation is
// hash-partitioned on the X-attributes of an anchor access constraint
// (on the empty key, so pinned to one shard, when no non-empty anchor
// exists; on all its attributes when it has no constraints), queries
// scatter-gather their probes across the shards — answers are
// cross-checked against a single-store run — and -ingest streams through
// the shard-parallel write path. -v adds the per-relation access
// breakdown and per-shard balance.
//
// The -data-dir DIR flag makes the store durable: a fresh directory is
// seeded from -dataset/-scale and written as per-shard epoch-0
// checkpoint segments, an existing one is recovered (newest valid
// checkpoint plus replayed WAL tail — the dataset flags are then
// ignored for data, and -shards must match the directory's manifest or
// be omitted). Writes stream through the fsync-per-batch WAL and the
// run checkpoints on exit, so the next invocation replays nothing:
//
//	bqrun -dataset social -scale 0.25 -query q0.sql -data-dir /tmp/bcq -shards 4 -ingest 100000
//	bqrun -query q0.sql -data-dir /tmp/bcq        # recovers, runs, checkpoints
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strings"
	"time"

	"bcq"
	"bcq/internal/datagen"
	"bcq/internal/engine"
	"bcq/internal/plan"
	"bcq/internal/querygen"
	"bcq/internal/shard"
)

func main() {
	dataset := flag.String("dataset", "social", "dataset: social | tfacc | mot | tpch")
	scale := flag.Float64("scale", 0.25, "scale factor (the paper varies 2⁻⁵ … 1)")
	queryPath := flag.String("query", "", "path to an SPC query file")
	workload := flag.Bool("workload", false, "run the generated 15-query workload instead of -query")
	budget := flag.Int64("budget", 2_000_000, "baseline tuple budget (0 = unlimited)")
	ingest := flag.Int("ingest", 0, "live mode: stream N inserts while queries run against pinned snapshots")
	shards := flag.Int("shards", 1, "partition the store into P shards (1 = single store)")
	dataDir := flag.String("data-dir", "", "durable store directory: seed it fresh or recover it, checkpoint on exit")
	limit := flag.Int("limit", 0, "early termination: stop each query after N answers (0 = all), reporting the probes saved")
	explain := flag.Bool("explain", false, "print each query's cost-based plan with estimated and actual per-step fetches")
	trace := flag.Bool("trace", false, "run each query traced and print its span tree (prepare → waves → fetch/verify → shards)")
	traceOut := flag.String("trace-out", "", "write each query's span tree as one JSON line to this file (implies tracing)")
	verbose := flag.Bool("v", false, "print per-relation access breakdown and per-shard balance")
	flag.Parse()
	shardsSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			shardsSet = true
		}
	})

	if err := run(config{
		dataset:   *dataset,
		scale:     *scale,
		query:     *queryPath,
		workload:  *workload,
		budget:    *budget,
		ingest:    *ingest,
		shards:    *shards,
		shardsSet: shardsSet,
		dataDir:   *dataDir,
		limit:     *limit,
		explain:   *explain,
		trace:     *trace,
		traceOut:  *traceOut,
		verbose:   *verbose,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bqrun:", err)
		os.Exit(1)
	}
}

// config carries the validated flag set.
type config struct {
	dataset   string
	scale     float64
	query     string
	workload  bool
	budget    int64
	ingest    int
	shards    int
	shardsSet bool
	dataDir   string
	limit     int
	explain   bool
	trace     bool
	traceOut  string
	verbose   bool

	// traceW is the open -trace-out sink (set by run, not a flag).
	traceW io.Writer
}

// validate rejects flag values whose behavior would otherwise be
// undefined (negative ingest, a zero-shard partition).
func (c config) validate() error {
	if c.ingest < 0 {
		return fmt.Errorf("-ingest %d: insert count must be ≥ 0 (0 = static mode)", c.ingest)
	}
	if c.shards < 1 {
		return fmt.Errorf("-shards %d: shard count must be ≥ 1 (1 = single store)", c.shards)
	}
	if c.limit < 0 {
		return fmt.Errorf("-limit %d: answer limit must be ≥ 0 (0 = all answers)", c.limit)
	}
	if c.limit > 0 && (c.shards > 1 || c.ingest > 0 || c.dataDir != "") {
		return fmt.Errorf("-limit combines only with the static single-store mode (drop -shards/-ingest/-data-dir)")
	}
	if c.traceOut != "" && (c.shards > 1 || c.ingest > 0 || c.dataDir != "") {
		return fmt.Errorf("-trace-out combines only with the static single-store mode (drop -shards/-ingest/-data-dir)")
	}
	if c.scale <= 0 {
		return fmt.Errorf("-scale %g: scale factor must be > 0", c.scale)
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

func run(c config) error {
	if err := c.validate(); err != nil {
		return err
	}
	ds, err := pickDataset(c.dataset)
	if err != nil {
		return err
	}

	if c.dataDir != "" {
		queries, err := loadQueries(ds, c)
		if err != nil {
			return err
		}
		return runDurable(ds, queries, c)
	}

	fmt.Printf("building %s at scale %g ...\n", ds.Name, c.scale)
	start := time.Now()
	db, err := ds.Build(c.scale)
	if err != nil {
		return err
	}
	fmt.Printf("built |D| = %d tuples in %v\n\n", db.NumTuples(), time.Since(start).Round(time.Millisecond))

	if c.traceOut != "" {
		f, err := os.Create(c.traceOut)
		if err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
		defer f.Close()
		c.traceW = f
	}

	queries, err := loadQueries(ds, c)
	if err != nil {
		return err
	}

	if c.shards > 1 || c.ingest > 0 {
		return runSharded(ds, db, queries, c)
	}

	eng, err := engine.New(ds.Catalog, ds.Access, db, engine.Options{})
	if err != nil {
		return err
	}
	for _, q := range queries {
		if err := runOne(ds, eng, db, q, c); err != nil {
			return err
		}
	}
	if c.verbose {
		printRelStats(db.RelStats())
	}
	st := eng.Stats()
	fmt.Printf("engine: %d prepares (%d planned, %d cache hits), %d executions\n",
		st.Prepares, st.CacheMisses, st.CacheHits, st.Execs)
	return nil
}

// loadQueries resolves -workload or -query into the query list.
func loadQueries(ds *datagen.Dataset, c config) ([]*bcq.Query, error) {
	switch {
	case c.workload:
		ws, err := querygen.Workload(ds, querygen.Seed)
		if err != nil {
			return nil, err
		}
		var queries []*bcq.Query
		for _, w := range ws {
			queries = append(queries, w.Query)
		}
		return queries, nil
	case c.query != "":
		src, err := os.ReadFile(c.query)
		if err != nil {
			return nil, err
		}
		q, err := bcq.ParseQuery(string(src), ds.Catalog)
		if err != nil {
			return nil, err
		}
		return []*bcq.Query{q}, nil
	default:
		return nil, fmt.Errorf("provide -query FILE or -workload")
	}
}

// runDurable drives -data-dir mode: the store lives on disk as one WAL
// plus per-shard checkpoint segments. A directory that already holds a store
// is recovered (the dataset flags then only supply the catalog; -shards
// must agree with the manifest or stay unset); a fresh one is seeded
// from -dataset/-scale. Queries execute through the scatter-gather
// engine, -ingest streams through the fsync-per-batch commit pipeline,
// and the run checkpoints on exit so the next open replays zero records.
func runDurable(ds *datagen.Dataset, queries []*bcq.Query, c config) error {
	var (
		ss  *shard.Store
		rec *shard.Recovery
	)
	if _, merr := shard.ReadManifest(c.dataDir); merr == nil {
		if c.ingest > 0 {
			// -ingest belongs to the seeding run: it duplicates the dataset
			// just built. A recovered store takes writes through bqserve.
			return fmt.Errorf("-ingest needs a freshly seeded -data-dir; this one already holds a store (recovery-safe writes go through bqserve /ingest)")
		}
		want := 0 // accept the manifest's count unless -shards was given
		if c.shardsSet {
			want = c.shards
		}
		start := time.Now()
		var err error
		ss, rec, err = shard.Open(c.dataDir, ds.Catalog, ds.Access, shard.Options{Shards: want})
		if err != nil {
			return err
		}
		fmt.Printf("recovered %s in %v: P = %d, |D| = %d tuples (%d WAL ops replayed, %d torn records dropped)\n",
			c.dataDir, time.Since(start).Round(time.Millisecond), ss.NumShards(), ss.NumTuples(),
			rec.ReplayedOps, rec.TruncatedRecords)
	} else if !errors.Is(merr, fs.ErrNotExist) {
		return merr
	} else {
		fmt.Printf("building %s at scale %g ...\n", ds.Name, c.scale)
		start := time.Now()
		db, err := ds.Build(c.scale)
		if err != nil {
			return err
		}
		fmt.Printf("built |D| = %d tuples in %v\n", db.NumTuples(), time.Since(start).Round(time.Millisecond))
		if ss, err = shard.New(db, ds.Access, shard.Options{Shards: c.shards, Dir: c.dataDir}); err != nil {
			return err
		}
		fmt.Printf("seeded durable store %s: P = %d\n", c.dataDir, c.shards)
	}
	closed := false
	defer func() {
		if !closed {
			ss.Close()
		}
	}()
	fmt.Println()

	eng, err := bcq.NewShardedEngine(ss, engine.Options{})
	if err != nil {
		return err
	}

	if c.ingest > 0 {
		if err := driveIngest(eng, ss, queries, c.ingest); err != nil {
			return err
		}
	} else {
		for _, q := range queries {
			prep, err := eng.PrepareQuery(q)
			if err != nil {
				var nebErr *plan.NotEffectivelyBoundedError
				if errors.As(err, &nebErr) {
					fmt.Printf("== %s: not effectively bounded; skipped in durable mode\n\n", q.Name)
					continue
				}
				return err
			}
			if prep.NumParams() > 0 {
				return fmt.Errorf("query %s has %d unbound placeholders; bqrun runs fully instantiated queries", q.Name, prep.NumParams())
			}
			start := time.Now()
			res, err := prep.Exec()
			if err != nil {
				return err
			}
			fmt.Printf("== %s\n   durable:  %5d answers in %8v — fetched %d tuples (|D_Q| = %d, bound %s)\n\n",
				q.Name, len(res.Tuples), time.Since(start).Round(time.Microsecond), res.Stats.TuplesFetched, res.DQSize, prep.FetchBound())
			if c.explain {
				fmt.Print(indentBlock(prep.Explain(res)))
			}
		}
	}

	if c.verbose {
		printRelStats(ss.RelStats())
		printShardStats(ss.ShardStats())
	}
	st := eng.Stats()
	fmt.Printf("engine: %d prepares (%d planned, %d cache hits), %d executions\n",
		st.Prepares, st.CacheMisses, st.CacheHits, st.Execs)

	closed = true
	if err := ss.Close(); err != nil {
		return fmt.Errorf("closing durable store: %w", err)
	}
	fmt.Printf("checkpointed and closed %s\n", c.dataDir)
	return nil
}

// runSharded drives the writable store: the dataset is partitioned into
// c.shards shards (one takes the dataset as it stands), every query is
// answered through scatter-gather execution and cross-checked against a
// single-store engine over the same data, and with -ingest the duplicate
// stream commits through the shard-parallel write path while readers
// keep executing on pinned cuts.
func runSharded(ds *datagen.Dataset, db *bcq.Database, queries []*bcq.Query, c config) error {
	ss, err := bcq.NewShardedDatabase(db, ds.Access, bcq.ShardOptions{Shards: c.shards})
	if err != nil {
		return err
	}
	eng, err := bcq.NewShardedEngine(ss, engine.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("sharded: P = %d\n", c.shards)
	for _, rs := range ds.Catalog.Relations() {
		pl, err := ss.PlacementOf(rs.Name())
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s %s\n", rs.Name(), pl)
	}
	printShardSizes(ss.View().ShardSizes())
	fmt.Println()

	if c.ingest > 0 {
		if err := driveIngest(eng, ss, queries, c.ingest); err != nil {
			return err
		}
	} else {
		// Static mode: cross-check every answer against a single store.
		ref, err := engine.New(ds.Catalog, ds.Access, db, engine.Options{})
		if err != nil {
			return err
		}
		for _, q := range queries {
			prep, err := eng.PrepareQuery(q)
			if err != nil {
				var nebErr *plan.NotEffectivelyBoundedError
				if errors.As(err, &nebErr) {
					fmt.Printf("== %s: not effectively bounded; skipped in shard mode\n\n", q.Name)
					continue
				}
				return err
			}
			if prep.NumParams() > 0 {
				return fmt.Errorf("query %s has %d unbound placeholders; bqrun runs fully instantiated queries", q.Name, prep.NumParams())
			}
			start := time.Now()
			res, err := prep.Exec()
			if err != nil {
				return err
			}
			elapsed := time.Since(start)
			fmt.Printf("== %s\n   sharded:  %5d answers in %8v — fetched %d tuples (|D_Q| = %d, bound %s)\n",
				q.Name, len(res.Tuples), elapsed.Round(time.Microsecond), res.Stats.TuplesFetched, res.DQSize, prep.FetchBound())
			if c.explain {
				fmt.Print(indentBlock(prep.Explain(res)))
			}
			rprep, err := ref.PrepareQuery(q)
			if err != nil {
				return err
			}
			want, err := rprep.Exec()
			if err != nil {
				return err
			}
			if renderResult(res) != renderResult(want) {
				return fmt.Errorf("SHARDED MISMATCH on %s:\n sharded: %s\n single:  %s", q.Name, renderResult(res), renderResult(want))
			}
			fmt.Printf("   matches single-store execution byte-for-byte ✓\n\n")
		}
	}

	if c.verbose {
		printRelStats(ss.RelStats())
		printShardStats(ss.ShardStats())
	}
	st := eng.Stats()
	fmt.Printf("engine: %d prepares (%d planned, %d cache hits), %d executions\n",
		st.Prepares, st.CacheMisses, st.CacheHits, st.Execs)
	return nil
}

// indentBlock indents every line of a plan explanation to align with the
// per-query report lines.
func indentBlock(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "   " + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// renderResult canonicalizes a result for byte-identity comparison.
func renderResult(r *bcq.Result) string {
	return fmt.Sprintf("cols=%v tuples=%v stats=%+v dq=%d", r.Cols, r.Tuples, r.Stats, r.DQSize)
}

// printRelStats renders the per-relation access breakdown (-v).
func printRelStats(rel map[string]bcq.Stats) {
	names := make([]string, 0, len(rel))
	for name := range rel {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("per-relation access breakdown:")
	fmt.Printf("  %-16s %12s %12s %12s\n", "relation", "lookups", "fetched", "scanned")
	for _, name := range names {
		s := rel[name]
		fmt.Printf("  %-16s %12d %12d %12d\n", name, s.IndexLookups, s.TuplesFetched, s.TuplesScanned)
	}
	fmt.Println()
}

// printShardSizes renders per-shard live tuple counts (-shards).
func printShardSizes(sizes []int64) {
	fmt.Printf("  shard balance (tuples):")
	for s, n := range sizes {
		fmt.Printf(" [%d] %d", s, n)
	}
	fmt.Println()
}

// printShardStats renders per-shard access counters (-shards -v).
func printShardStats(stats []bcq.Stats) {
	fmt.Println("per-shard access breakdown:")
	fmt.Printf("  %-6s %12s %12s %12s\n", "shard", "lookups", "fetched", "scanned")
	for s, st := range stats {
		fmt.Printf("  %-6d %12d %12d %12d\n", s, st.IndexLookups, st.TuplesFetched, st.TuplesScanned)
	}
	fmt.Println()
}

// runLimited re-runs a query through the early-terminating stream with
// -limit and cross-checks the page against the full answer: every
// limited answer must be a full answer, the count must be
// min(limit, |Q(D)|), and a binding limit must fetch no more tuples
// than the full run (strictly fewer probes show up as "skipped").
func runLimited(prep *engine.Prepared, full *bcq.Result, c config) error {
	start := time.Now()
	lres, err := prep.ExecLimit(c.limit)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	var skipped int64
	for _, st := range lres.StepStats {
		skipped += st.Skipped
	}
	fmt.Printf("   limit %d:  %5d answers in %8v — fetched %d tuples, ≥ %d probes skipped\n",
		c.limit, len(lres.Tuples), elapsed.Round(time.Microsecond), lres.Stats.TuplesFetched, skipped)

	want := len(full.Tuples)
	if c.limit < want {
		want = c.limit
	}
	if len(lres.Tuples) != want {
		return fmt.Errorf("LIMIT MISMATCH: limit %d returned %d answers, expected %d", c.limit, len(lres.Tuples), want)
	}
	inFull := make(map[string]bool, len(full.Tuples))
	for _, t := range full.Tuples {
		inFull[fmt.Sprint(t)] = true
	}
	for _, t := range lres.Tuples {
		if !inFull[fmt.Sprint(t)] {
			return fmt.Errorf("LIMIT MISMATCH: limited answer %v is not a full answer", t)
		}
	}
	if lres.Stats.TuplesFetched > full.Stats.TuplesFetched {
		return fmt.Errorf("LIMIT MISMATCH: limited run fetched %d tuples > full run's %d",
			lres.Stats.TuplesFetched, full.Stats.TuplesFetched)
	}
	fmt.Printf("   limited answers ⊆ full answers ✓\n")
	return nil
}

// ingestBatch is the write-batch size of live mode: one epoch per batch.
const ingestBatch = 64

// driveIngest is live mode: it measures each query's answers and tuple
// accesses on the pre-ingest state, streams n inserts (duplicates of
// base tuples — schema-safe by construction) through ss.Apply while a
// reader goroutine keeps executing the queries against pinned cuts, then
// re-measures. Bounded queries fetch the same number of tuples at the
// grown |D|.
func driveIngest(eng *engine.Engine, ss *bcq.ShardedDatabase, queries []*bcq.Query, n int) error {
	var preps []*engine.Prepared
	for _, q := range queries {
		prep, err := eng.PrepareQuery(q)
		if err != nil {
			var nebErr *plan.NotEffectivelyBoundedError
			if errors.As(err, &nebErr) {
				fmt.Printf("== %s: not effectively bounded; skipped in live mode\n", q.Name)
				continue
			}
			return err
		}
		if prep.NumParams() > 0 {
			return fmt.Errorf("query %s has %d unbound placeholders; bqrun runs fully instantiated queries", q.Name, prep.NumParams())
		}
		preps = append(preps, prep)
	}
	if len(preps) == 0 {
		return fmt.Errorf("no effectively bounded queries to serve during ingest")
	}

	type baselineRun struct {
		answers int
		fetched int64
	}
	before := make([]baselineRun, len(preps))
	for i, p := range preps {
		res, err := p.Exec()
		if err != nil {
			return err
		}
		before[i] = baselineRun{len(res.Tuples), res.Stats.TuplesFetched}
	}

	// Duplicate existing base tuples round-robin across relations: a
	// duplicate of a live (X, Y) pair can never add a distinct Y-value,
	// so ingest at full speed violates no constraint — and it is exactly
	// the duplication mechanism datagen grows |D| with (DESIGN.md §2.2).
	v := ss.View()
	var rels []string
	base := make(map[string][]bcq.Tuple)
	for _, rs := range ss.Catalog().Relations() {
		ts, err := v.Tuples(rs.Name())
		if err != nil {
			return err
		}
		if len(ts) > 0 {
			rels = append(rels, rs.Name())
			base[rs.Name()] = ts
		}
	}
	if len(rels) == 0 {
		return fmt.Errorf("dataset has no tuples to duplicate")
	}

	fmt.Printf("live: |D| = %d, P = %d; ingesting %d duplicate tuples (batches of %d) with concurrent reads ...\n",
		ss.NumTuples(), ss.NumShards(), n, ingestBatch)

	type readerReport struct {
		served int
		err    error
	}
	done := make(chan struct{})
	reader := make(chan readerReport, 1)
	go func() {
		count := 0
		for {
			select {
			case <-done:
				reader <- readerReport{served: count}
				return
			default:
			}
			for _, p := range preps {
				if _, err := p.Exec(); err != nil {
					reader <- readerReport{served: count, err: fmt.Errorf("concurrent read: %w", err)}
					return
				}
				count++
			}
		}
	}()

	start := time.Now()
	ops := make([]bcq.LiveOp, 0, ingestBatch)
	for i := 0; i < n; {
		ops = ops[:0]
		for ; i < n && len(ops) < ingestBatch; i++ {
			rel := rels[i%len(rels)]
			tuples := base[rel]
			ops = append(ops, bcq.InsertOp(rel, tuples[(i/len(rels))%len(tuples)]))
		}
		if err := ss.Apply(ops); err != nil {
			close(done)
			<-reader
			return err
		}
	}
	elapsed := time.Since(start)
	close(done)
	rep := <-reader
	if rep.err != nil {
		return rep.err
	}

	fmt.Printf("      ingested in %v (%.0f ops/s, %d shard epochs); served %d evaluations concurrently\n",
		elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds(), ss.IngestStats().Epochs, rep.served)
	fmt.Printf("      |D| now %d\n", ss.NumTuples())
	printShardSizes(ss.View().ShardSizes())
	fmt.Println()

	flat := true
	for i, p := range preps {
		res, err := p.Exec()
		if err != nil {
			return err
		}
		mark := "flat ✓"
		if res.Stats.TuplesFetched != before[i].fetched {
			mark = fmt.Sprintf("CHANGED from %d", before[i].fetched)
			flat = false
		}
		fmt.Printf("== %s: %d answers (was %d), fetched %d tuples — %s (bound %s)\n",
			p.Query().Name, len(res.Tuples), before[i].answers, res.Stats.TuplesFetched, mark, p.FetchBound())
	}
	fmt.Println()
	if !flat {
		return fmt.Errorf("tuple accesses changed under duplicate-only ingest; bounded evaluation should be flat in |D|")
	}
	return nil
}

// runOne answers q through the engine and through the full-data baseline
// over db, the sealed database the engine serves.
func runOne(ds *datagen.Dataset, eng *engine.Engine, db *bcq.Database, q *bcq.Query, c config) error {
	fmt.Printf("== %s\n   %s\n", q.Name, q)
	// -trace (and -trace-out) threads one trace through prepare and
	// execution; the span tree (prepare → waves → fetch/verify → shards)
	// prints after the run, and -trace-out appends it as one JSON line.
	var tr *bcq.Trace
	if c.trace || c.traceW != nil {
		tr = bcq.NewTrace("", q.Name)
	}
	prep, err := eng.PrepareQueryTraced(q, tr)
	if err != nil {
		var nebErr *plan.NotEffectivelyBoundedError
		if errors.As(err, &nebErr) {
			fmt.Printf("   not effectively bounded (%v); skipping bounded run\n\n", err)
			return nil
		}
		return err
	}
	if prep.NumParams() > 0 {
		return fmt.Errorf("query %s has %d unbound placeholders; bqrun runs fully instantiated queries", q.Name, prep.NumParams())
	}
	start := time.Now()
	res, err := prep.ExecTrace(tr)
	if err != nil {
		return err
	}
	evalTime := time.Since(start)
	tr.Finish()
	if c.traceW != nil {
		if _, err := fmt.Fprintf(c.traceW, "%s\n", tr.JSON()); err != nil {
			return fmt.Errorf("-trace-out: %w", err)
		}
	}
	fmt.Printf("   evalDQ:   %5d answers in %8v — fetched %d tuples (|D_Q| = %d, bound %s)\n",
		len(res.Tuples), evalTime.Round(time.Microsecond), res.Stats.TuplesFetched, res.DQSize, prep.FetchBound())
	if c.explain {
		// Explain renders the span tree itself when the result is traced.
		fmt.Print(indentBlock(prep.Explain(res)))
	} else if c.trace && tr != nil {
		fmt.Print(indentBlock(tr.Tree()))
	}
	if c.limit > 0 {
		if err := runLimited(prep, res, c); err != nil {
			return err
		}
	}
	an, err := bcq.Analyze(ds.Catalog, q, ds.Access)
	if err != nil {
		return err
	}
	start = time.Now()
	bres, err := bcq.ExecuteBaseline(an, db, bcq.BaselineOptions{Budget: c.budget})
	baseTime := time.Since(start)
	switch {
	case err != nil:
		fmt.Printf("   baseline: DNF after %v (%v)\n", baseTime.Round(time.Microsecond), err)
	default:
		fmt.Printf("   baseline: %5d answers in %8v — touched %d tuples\n",
			len(bres.Tuples), baseTime.Round(time.Microsecond), bres.Stats.Total())
		if len(bres.Tuples) != len(res.Tuples) {
			return fmt.Errorf("ANSWER MISMATCH on %s: evalDQ %d vs baseline %d", q.Name, len(res.Tuples), len(bres.Tuples))
		}
		fmt.Printf("   answers agree ✓\n")
	}
	fmt.Println()
	return nil
}
