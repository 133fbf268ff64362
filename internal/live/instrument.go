package live

import (
	"time"

	"bcq/internal/obs"
	"bcq/internal/wal"
)

// Instrument registers the store's ingest and freshness metrics on a
// registry, each series carrying the given constant labels (the sharded
// store labels every shard's delegate with its index). Call it before the
// store is shared: the apply-latency histogram handle is installed
// without synchronization. Nil registry → no-op; the counters are
// scrape-time bridges over the atomics the store maintains anyway, so
// instrumentation adds no write-path cost beyond one timed Apply.
func (st *Store) Instrument(reg *obs.Registry, labels ...obs.Label) {
	if reg == nil {
		return
	}
	st.applySec = reg.Histogram("bcq_ingest_apply_seconds",
		"Latency of one Apply batch (validate + commit).", obs.LatencyBuckets, labels...)
	cf := func(name, help string, load func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(load()) }, labels...)
	}
	cf("bcq_ingest_batches_total", "Apply batches received.", st.batches.Load)
	cf("bcq_ingest_ops_applied_total", "Ops committed into an epoch.", st.applied.Load)
	cf("bcq_ingest_ops_rejected_total", "Ops rejected (Strict mode bound violations).", st.rejected.Load)
	cf("bcq_ingest_ops_quarantined_total", "Ops quarantined (Permissive mode).", st.quarantined.Load)
	cf("bcq_ingest_compactions_total", "Compactions run.", st.compactions.Load)
	cf("bcq_schema_extensions_total", "Access-schema extensions accepted.", st.extensions.Load)
	reg.GaugeFunc("bcq_epoch", "Current data epoch number.",
		func() float64 { return float64(st.Epoch()) }, labels...)
	reg.GaugeFunc("bcq_epoch_age_seconds",
		"Seconds since the last committed epoch (grows while idle, near zero under ingest).",
		func() float64 {
			return time.Since(time.Unix(0, st.lastCommit.Load())).Seconds()
		}, labels...)
	reg.GaugeFunc("bcq_store_tuples", "Live tuples currently visible.",
		func() float64 { return float64(st.NumTuples()) }, labels...)

	// Durability series, present only on durable stores. Scrape-time
	// bridges over counters the WAL maintains anyway, so registering them
	// costs the write path nothing. A shard's log is its sharded store's,
	// which exports the log's series once.
	if st.w == nil {
		return
	}
	if !st.sharedLog {
		InstrumentWAL(reg, st.w, labels...)
	}
	cf("bcq_segment_writes_total", "Checkpoint segments written.", st.segWrites.Load)
	reg.GaugeFunc("bcq_segment_bytes", "Size of the newest checkpoint segment.",
		func() float64 { return float64(st.segBytes.Load()) }, labels...)
	reg.GaugeFunc("bcq_segment_epoch", "Epoch of the newest checkpoint segment.",
		func() float64 { return float64(st.segEpoch.Load()) }, labels...)
}

// InstrumentWAL registers a write-ahead log's bcq_wal_* series on a
// registry, each carrying the given constant labels.
func InstrumentWAL(reg *obs.Registry, w *wal.WAL, labels ...obs.Label) {
	cf := func(name, help string, load func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(load()) }, labels...)
	}
	cf("bcq_wal_appends_total", "WAL records appended (fsynced commits).",
		func() int64 { return w.Stats().Appends })
	cf("bcq_wal_appended_bytes_total", "Bytes appended to the WAL.",
		func() int64 { return w.Stats().AppendedBytes })
	cf("bcq_wal_replayed_records_total", "WAL records replayed at the last open.",
		func() int64 { return w.Stats().ReplayedRecords })
	cf("bcq_wal_truncated_records_total", "Torn or corrupt WAL frames truncated at open.",
		func() int64 { return w.Stats().TruncatedRecords })
	reg.GaugeFunc("bcq_wal_size_bytes", "Current WAL file size.",
		func() float64 { return float64(w.Stats().SizeBytes) }, labels...)
}
