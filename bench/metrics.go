package main

import "fmt"

// The benchmark's vocabulary: workload names and every metric it reports.
// BENCHMARK.json at the repository root lists the same names, units,
// directions and bounds; TestNamesMatchBenchmarkJSON keeps the two equal.

// workloadDef names one workload and why the benchmark runs it.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"single_batch", "one node, 256-query batches on one structure: core lookup, batch fan-out and JSON encode dominate"},
	{"portfolio_weighted", "single_batch on a K=3 weight-ladder portfolio with per-query weights: adds K probes and weighted routing"},
	{"cluster_forward", "two nodes, 4-query batches that all enter the non-owner: HTTP, decode, the forward hop and the relay dominate"},
	{"generate_mixed", "one client generates never-seen structures while another runs single_batch: generation next to reads"},
}

// metricDef is one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a client of mpsd sees, measured with tracing off. The
// request metrics are ratios to the reference route measured in the same
// second (see reference.go); setup_s, the one absolute time, carries the
// widest bound allowed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"queries_per_s_rel", "x_ref", "higher", 0.16},
	{"req_p50_rel", "x_ref", "lower", 0.16},
	{"req_p90_rel", "x_ref", "lower", 0.16},
	{"stored_frac", "share", "higher", 0.01},
	{"max_rss_mb", "MB", "lower", 0.10},
	{"gen_coverage", "share", "higher", 0.001},
	{"gen_cost", "cost", "lower", 0.001},
}

// perLayer comes from the traced run: the workload's own inputs replayed
// through each layer's public entry point, plus the servers' per-stage
// counters.
var perLayer = []metricDef{
	{Name: "core.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lookup_allocs", Unit: "count", Better: "lower"},
	{Name: "portfolio.route_ns", Unit: "ns", Better: "lower"},
	{Name: "mps.batch_ns", Unit: "ns", Better: "lower"},
	{Name: "mps.batch_allocs", Unit: "count", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_allocs", Unit: "count", Better: "lower"},
	{Name: "serve.handler_kb", Unit: "KB", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.resp_kb", Unit: "KB", Better: "lower"},
	{Name: "serve.http_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.forward_us", Unit: "us", Better: "lower"},
	{Name: "cluster.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.stage.batch_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.stage.instantiate_us", Unit: "us", Better: "lower"},
	{Name: "serve.stage.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.stage.forward_us", Unit: "us", Better: "lower"},
	{Name: "serve.stage.job_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stage.job_run_ms", Unit: "ms", Better: "lower"},
	{Name: "cost.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "cost.eval_allocs", Unit: "count", Better: "lower"},
	{Name: "bdio.step_ns", Unit: "ns", Better: "lower"},
	{Name: "explorer.iter_ms", Unit: "ms", Better: "lower"},
	{Name: "explorer.accept_frac", Unit: "share", Better: "higher"},
	{Name: "core.insert_us", Unit: "us", Better: "lower"},
	{Name: "gen.run_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_us", Unit: "us", Better: "lower"},
	{Name: "core.encode_us", Unit: "us", Better: "lower"},
	{Name: "store.put_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.gen_overhead_ms", Unit: "ms", Better: "lower"},
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill sets every metric of defs from values, which must hold them all.
func (r *result) fill(defs []metricDef, values map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}
