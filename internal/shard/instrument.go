package shard

import (
	"strconv"

	"bcq/internal/live"
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
	if st.w != nil {
		live.InstrumentWAL(reg, st.w)
	}
	reg.GaugeFunc("bcq_shards", "Partition count P of the sharded store.",
		func() float64 { return float64(st.NumShards()) })
}
