package cluster

import (
	"strconv"

	"pimmine/internal/obs"
	"pimmine/internal/vec"
)

// metrics holds the pim_cluster_* instruments. Every field may be nil
// (no Observer configured); obs instruments are nil-safe, so call sites
// never guard.
type metrics struct {
	queries        *obs.Counter
	failovers      *obs.Counter
	noQuorum       *obs.Counter
	rebalancing    *obs.Counter
	degradedWrites *obs.Counter
	kills          *obs.Counter
	repairs        *obs.Counter
	rebalances     *obs.Counter
	ships          *obs.Counter
	shipBytes      *obs.Counter
	shipNs         *obs.Counter
	upGauge        *obs.Gauge
	wear           []*obs.Gauge
}

func newMetrics(o *obs.Observer, nodes int) *metrics {
	m := &metrics{}
	if o == nil {
		return m
	}
	reg := o.Registry()
	m.queries = reg.Counter("pim_cluster_queries_total", "Queries dispatched through the placement layer.")
	m.failovers = reg.Counter("pim_cluster_failovers_total", "Shard reads served by a non-preferred replica (breaker-open, fault, or dead node).")
	m.noQuorum = reg.Counter("pim_cluster_noquorum_total", "Shard reads refused because no live replica existed.")
	m.rebalancing = reg.Counter("pim_cluster_rebalancing_total", "Shard reads refused because every surviving replica was stale.")
	m.degradedWrites = reg.Counter("pim_cluster_degraded_writes_total", "Mutations that committed on a strict subset of writable replicas; failed replicas went stale for Repair.")
	m.kills = reg.Counter("pim_cluster_node_kills_total", "Nodes taken down hard (chaos or admin).")
	m.repairs = reg.Counter("pim_cluster_repairs_total", "Replica installs performed by anti-entropy Repair.")
	m.rebalances = reg.Counter("pim_cluster_rebalances_total", "Endurance-leveling replica moves.")
	m.ships = reg.Counter("pim_cluster_ship_total", "Snapshots shipped between nodes.")
	m.shipBytes = reg.Counter("pim_cluster_ship_bytes_total", "Encoded PIMSNAP1 bytes shipped between nodes.")
	m.shipNs = reg.Counter("pim_cluster_ship_ns_total", "Modeled inter-node transfer time over a 12.5 GB/s link, in ns.")
	m.upGauge = reg.Gauge("pim_cluster_nodes_up", "Nodes currently up.")
	m.wear = make([]*obs.Gauge, nodes)
	for i := range m.wear {
		m.wear[i] = reg.Gauge("pim_cluster_node_wear", "Crossbar programmings (replica installs and folds) per node.",
			obs.Label{Key: "node", Value: strconv.Itoa(i)})
	}
	return m
}

func (m *metrics) inc(c *obs.Counter)          { c.Inc() }
func (m *metrics) add(c *obs.Counter, n int64) { c.Add(n) }
func (m *metrics) nodesUp(n int)               { m.upGauge.Set(int64(n)) }

func (m *metrics) wearAdd(nodeID int, n int64) {
	if m.wear != nil {
		m.wear[nodeID].Add(n)
	}
}

func (m *metrics) shipped(bytes int64, ns float64) {
	m.ships.Inc()
	m.shipBytes.Add(bytes)
	m.shipNs.Add(int64(ns))
}

// matrixFrom wraps a decoded snapshot's row-major payload as a matrix.
func matrixFrom(data []float64, d int) *vec.Matrix {
	return &vec.Matrix{N: len(data) / d, D: d, Data: data}
}
