package shard

import (
	"strconv"

	"bcq/internal/obs"
)

// Instrument registers the sharded store's metrics: every shard's live
// delegate registers its ingest, freshness and checkpoint series labeled
// with the shard index (bcq_ingest_*{shard="i"},
// bcq_epoch_age_seconds{shard="i"}, ...), the store's one log its
// bcq_wal_* series once, and the store a partition-count gauge. Call
// before the store is shared; nil registry → no-op.
func (st *Store) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for i := 0; i < st.NumShards(); i++ {
		st.Shard(i).Instrument(reg, obs.L("shard", strconv.Itoa(i)))
	}
	if w := st.w; w != nil {
		cf := func(name, help string, load func() int64) {
			reg.CounterFunc(name, help, func() float64 { return float64(load()) })
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
			func() float64 { return float64(w.Stats().SizeBytes) })
	}
	reg.GaugeFunc("bcq_shards", "Partition count P of the sharded store.",
		func() float64 { return float64(st.NumShards()) })
}
