package live

import (
	"time"

	"bcq/internal/obs"
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

	// Checkpoint series, present only on durable stores: scrape-time
	// bridges over the segment gauges, costing the write path nothing.
	// The log's series are its sharded store's, which exports them once.
	if st.w == nil {
		return
	}
	cf("bcq_segment_writes_total", "Checkpoint segments written.", st.segWrites.Load)
	reg.GaugeFunc("bcq_segment_bytes", "Size of the newest checkpoint segment.",
		func() float64 { return float64(st.segBytes.Load()) }, labels...)
	reg.GaugeFunc("bcq_segment_epoch", "Epoch of the newest checkpoint segment.",
		func() float64 { return float64(st.segEpoch.Load()) }, labels...)
}
