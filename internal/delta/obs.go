package delta

import "pimmine/internal/obs"

// Metrics holds the obs handles a Store publishes to. Every field is
// optional (nil handles are safe no-ops, matching internal/obs), so the
// zero Metrics keeps the hot path observation-free.
type Metrics struct {
	// DeltaRows and Tombstones track the current fill of the host-side
	// buffer and the dead rows still occupying crossbar cells.
	DeltaRows  *obs.Gauge
	Tombstones *obs.Gauge
	// Compactions and CompactionFailures count finished attempts;
	// CompactionSeconds is the rebuild latency histogram (also the
	// mutation-stall distribution, since the compactor holds the
	// mutation lock for the rebuild).
	Compactions        *obs.Counter
	CompactionFailures *obs.Counter
	CompactionSeconds  *obs.Histogram
}

// NewMetrics registers the standard delta metric set on a registry.
// label distinguishes multiple stores (e.g. one per serve shard).
func NewMetrics(reg *obs.Registry, labels ...obs.Label) Metrics {
	if reg == nil {
		return Metrics{}
	}
	return Metrics{
		DeltaRows:  reg.Gauge("pim_delta_rows", "Rows in the host-side delta buffer.", labels...),
		Tombstones: reg.Gauge("pim_delta_tombstones", "Dead rows still occupying crossbar cells.", labels...),
		Compactions: reg.Counter("pim_delta_compactions_total",
			"Compactions that rebuilt and swapped the base image.", labels...),
		CompactionFailures: reg.Counter("pim_delta_compaction_failures_total",
			"Compaction attempts whose rebuild failed (the old epoch keeps serving).", labels...),
		CompactionSeconds: reg.Histogram("pim_delta_compaction_seconds",
			"Wall-clock compaction duration (also the mutation stall).",
			obs.ExpBuckets(1e-4, 4, 10), labels...),
	}
}

// publishGauges refreshes the fill gauges after a snapshot swap.
func (st *Store) publishGauges(sn *snapshot) {
	m := st.opts.Metrics
	m.DeltaRows.Set(int64(len(sn.deltaIDs)))
	m.Tombstones.Set(int64(len(sn.tomb)))
}

// compactionDone records a successful compaction.
func (m Metrics) compactionDone(seconds float64) {
	m.Compactions.Inc()
	m.CompactionSeconds.Observe(seconds)
}

// compactionFailed records a failed compaction.
func (m Metrics) compactionFailed() {
	m.CompactionFailures.Inc()
}
