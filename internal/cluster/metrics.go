package cluster

import "math"

// GaugeValue maps the breaker position onto a stable numeric scale for
// metric export: 0 closed (healthy), 1 half-open (probing), 2 open
// (refusing). Ordered by badness so `max by (peer)` alerts read naturally.
func (s BreakerState) GaugeValue() float64 {
	switch s {
	case BreakerHalfOpen:
		return 1
	case BreakerOpen:
		return 2
	default:
		return 0
	}
}

// BreakerGauges returns peer → numeric breaker state for every peer this
// node has talked to (peers never contacted have no breaker and are
// omitted — absence of the series means absence of traffic, not health).
func (c *Cluster) BreakerGauges() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.breakers))
	for p, b := range c.breakers {
		out[p] = b.State().GaugeValue()
	}
	return out
}

// HotFanouts returns how many reads RouteRead spread to the replica set
// instead of the owner — the hot-key fan-out counter, exported beside the
// Stats counters as mps_cluster_events_total{event="hot_fanout"}.
func (c *Cluster) HotFanouts() int64 { return c.hotFanouts.Load() }

// Shares returns each node's fraction of the ring's hash circle — the
// expected share of keys it owns. Computed from vnode arc lengths, so the
// values sum to 1 and expose placement skew directly (a healthy ring
// reads ≈1/N per node; see DefaultVNodes for the expected deviation).
func (r *Ring) Shares() map[string]float64 {
	arcs := make([]uint64, len(r.nodes))
	for i, p := range r.points {
		// Keys in (hash[i-1], hash[i]] belong to point i; for i = 0 the
		// uint64 subtraction wraps, which is exactly the wrap-around arc.
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		arcs[p.node] += p.hash - prev
	}
	out := make(map[string]float64, len(r.nodes))
	for i, name := range r.nodes {
		out[name] = float64(arcs[i]) / math.Pow(2, 64)
	}
	return out
}
