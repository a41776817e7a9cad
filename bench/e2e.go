package main

// The end-to-end run: set up several times, warm up, then measure the
// closed loop with tracing off.

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up from scratch; setup_s is the
// median.
const setupReps = 5

// warmup lets caches fill and connections open before timing: 3 s, or a
// third of a shorter run, in whole seconds so that every measured second
// starts on the server route and ends on the reference route.
func warmup(seconds int) time.Duration {
	return time.Duration(min(3, max(1, seconds/3))) * time.Second
}

func runE2E(ctx context.Context, p *plan, logw io.Writer) (*result, error) {
	logf := serverLog(logw)
	var setups []float64
	var gens []genSample // the last set-up's single-structure generations
	var d *deployment
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.close()
			// Collect the previous set-up's servers now, so the peak
			// resident set is one set-up's, not a GC timing accident.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if d, err = deploy(p, logf); err != nil {
			return nil, err
		}
		all, err := setupArtifacts(ctx, p, d.entry)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = structureGens(p, all)
	}
	defer d.close()

	warm, dur := warmup(p.Seconds), time.Duration(p.Seconds)*time.Second
	lr := runLoop(ctx, p, d.entry, warm, dur, nil)
	res := &result{Correct: lr.wrong == nil, Attempted: lr.attempted, Failed: lr.failed, Metrics: map[string]metricValue{}}
	if lr.wrong != nil {
		return res, lr.wrong
	}
	if lr.owned != lr.checked {
		res.Correct = false
		return res, fmt.Errorf("forwarded_frac %.4f: %d of %d responses were not served by the owner",
			float64(lr.owned)/float64(lr.checked), lr.checked-lr.owned, lr.checked)
	}
	if p.Generate {
		if err := regenerateCheck(ctx, lr.gens); err != nil {
			res.Correct = false
			return res, err
		}
		gens = nil
		for _, g := range lr.gens {
			if g.index < genQualitySeeds {
				gens = append(gens, g)
			}
		}
		if len(gens) == 0 {
			return nil, fmt.Errorf("no generation completed")
		}
	}

	vals := map[string]float64{"setup_s": median(setups)}
	w, err := windowStats(lr.wins)
	if err != nil {
		return nil, err
	}
	vals["queries_per_s_rel"], vals["req_p50_rel"], vals["req_p90_rel"] = w.qpsRel, w.p50Rel, w.p90Rel
	vals["stored_frac"] = float64(w.stored) / float64(w.queries)
	if vals["max_rss_mb"], err = maxRSSMB(); err != nil {
		return nil, err
	}
	var covs, costs []float64
	for _, g := range gens {
		covs = append(covs, g.info.Coverage)
		costs = append(costs, g.info.Stats.BestAvgCost)
	}
	vals["gen_coverage"], vals["gen_cost"] = mean(covs), mean(costs)
	if err := res.fill(endToEnd, vals); err != nil {
		return nil, err
	}

	fmt.Fprintf(logw, "%s seed %d: %d s measured after %s warm-up\n", p.Workload, p.Seed, p.Seconds, warm)
	printMetrics(logw, endToEnd, vals)
	fmt.Fprintf(logw, "  info: on the server route, medians over windows: %.6g queries/s, req_p50_ms %.4g, req_p90_ms %.4g; req_p99_ms %.4g over all %d requests (%d queries)\n",
		w.qps, w.p50, w.p90, w.p99, w.requests, w.queries)
	fmt.Fprintf(logw, "  info: setup_s samples %.4g, server-route queries/s by window %.6g\n", setups, w.windowQPS)
	if p.Generate {
		var lats []float64
		for _, g := range lr.gens {
			if g.end >= warm && g.end < warm+dur {
				lats = append(lats, ms(g.lat))
			}
		}
		if len(lats) > 0 {
			fmt.Fprintf(logw, "  info: %d generations in the measured window, p50 %.4g ms (not gated)\n", len(lats), median(lats))
		}
	}
	if lr.checked > 0 {
		fmt.Fprintf(logw, "  info: cluster.forwarded_frac %.4f (%d responses)\n", float64(lr.owned)/float64(lr.checked), lr.checked)
	}
	return res, nil
}

// regenerateCheck regenerates the first generate_mixed specs in process
// and requires the server's placement counts and coverage.
func regenerateCheck(ctx context.Context, gens []genSample) error {
	for _, g := range gens[:min(4, len(gens))] {
		res, err := runSpec(ctx, genSpec(g.index))
		if err != nil {
			return err
		}
		if n := res.Structure.NumPlacements(); n != g.info.Placements || res.Stats[0].FinalCoverage != g.info.Coverage {
			return fmt.Errorf("generation %d (seed %d): server reported %d placements, coverage %v; in process %d, %v",
				g.index, genSpec(g.index).Seed, g.info.Placements, g.info.Coverage, n, res.Stats[0].FinalCoverage)
		}
	}
	return nil
}

// windowed are the request metrics of the measured interval, cut into
// one-second windows, each half on the server route and half on the
// reference route. The ratios compare the two halves of one window and are
// medians over windows, so one disturbed second moves them little. The
// absolute values cover the server route only and are information.
type windowed struct {
	requests, queries, stored int
	qpsRel, p50Rel, p90Rel    float64
	qps, p50, p90, p99        float64
	windowQPS                 []float64 // server-route queries/s per window
}

func windowStats(wins [][2]window) (windowed, error) {
	var out windowed
	var qpsRel, p50Rel, p90Rel, p50, p90, all []float64
	for _, w := range wins {
		srv, ref := w[0], w[1]
		out.windowQPS = append(out.windowQPS, float64(srv.queries)/refHalf.Seconds())
		out.requests += len(srv.lats)
		out.queries += srv.queries
		out.stored += srv.stored
		all = append(all, srv.lats...)
		if len(srv.lats) == 0 || len(ref.lats) == 0 {
			continue
		}
		sort.Float64s(srv.lats)
		sort.Float64s(ref.lats)
		qpsRel = append(qpsRel, float64(srv.queries)/float64(ref.queries))
		p50Rel = append(p50Rel, percentile(srv.lats, 0.50)/percentile(ref.lats, 0.50))
		p90Rel = append(p90Rel, percentile(srv.lats, 0.90)/percentile(ref.lats, 0.90))
		p50 = append(p50, percentile(srv.lats, 0.50))
		p90 = append(p90, percentile(srv.lats, 0.90))
	}
	if len(qpsRel) == 0 {
		return out, fmt.Errorf("no window answered requests on both the server and the reference route")
	}
	sort.Float64s(all)
	out.qpsRel, out.p50Rel, out.p90Rel = median(qpsRel), median(p50Rel), median(p90Rel)
	out.qps, out.p50, out.p90, out.p99 = median(out.windowQPS), median(p50), median(p90), percentile(all, 0.99)
	return out, nil
}

// percentile is the nearest-rank q-quantile of sorted xs.
func percentile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is this process's peak resident set size.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func printMetrics(w io.Writer, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
}

// serverLog sends the servers' operational log lines (forward failures,
// store errors) to w.
func serverLog(w io.Writer) func(string, ...any) {
	return func(format string, args ...any) {
		fmt.Fprintf(w, "mpsd: "+format+"\n", args...)
	}
}
