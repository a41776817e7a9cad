// Command mpsload drives a measured mixed workload — structure
// generation, batched instantiation, portfolio builds, and weighted
// instantiation against weight-diverse portfolios — against one or
// more mpsd nodes and reports p50/p90/p99/p99.9 latency per operation
// and per entry node.
//
// Point it at a single daemon or at every node of a cluster; in cluster
// mode each request picks an entry node uniformly, so consistent-hash
// forwarding and hot-key fan-out sit on the measured path.
//
// Usage:
//
//	mpsload -targets http://127.0.0.1:8723,http://127.0.0.1:8724 \
//	    -duration 30s -concurrency 16 \
//	    -mix generate=1,instantiate=8,portfolio=1,weighted=2
//
// The weighted op batches instantiate queries against a member_weights
// portfolio with per-query routing weights cycling the facade's weight
// ladder, so the weighted route path is measured alongside the legacy
// smallest-area one.
//
// The -smoke preset shrinks the run (3s, small budgets) for CI: the
// exit status is 0 only if every request succeeded, so a flaky cluster
// fails the pipeline. -json swaps the table for a machine-readable
// summary (millisecond floats) on stdout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"mps/internal/loadgen"
)

func main() {
	targets := flag.String("targets", "http://127.0.0.1:8723", "comma-separated mpsd base URLs; each request picks one uniformly")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	concurrency := flag.Int("concurrency", 8, "concurrent workers")
	mixFlag := flag.String("mix", "generate=1,instantiate=8,portfolio=1", "op weights, e.g. generate=1,instantiate=8,portfolio=1,weighted=2")
	circuit := flag.String("circuit", "circ01", "benchmark circuit to size")
	seeds := flag.Int("seeds", 4, "distinct structure seeds the workload cycles through")
	effort := flag.String("effort", "quick", "generation effort preset")
	iterations := flag.Int("iterations", 0, "annealing iterations override (0 = effort default)")
	bdioSteps := flag.Int("bdio-steps", 0, "BDIO step budget override (0 = effort default)")
	portfolio := flag.Int("portfolio", 2, "member count K for portfolio ops")
	batch := flag.Int("batch", 16, "dimension queries per instantiate request")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-request timeout, generation included")
	seed := flag.Int64("seed", 1, "workload rng seed (op/target/query sequence)")
	smoke := flag.Bool("smoke", false, "CI preset: 3s, 4 workers, tiny budgets; exit 1 on any request error")
	asJSON := flag.Bool("json", false, "emit a JSON summary instead of the table")
	scrape := flag.Bool("scrape", false,
		"scrape /metrics from every target before and after the run and print client-vs-server p50/p99 from the diff")
	trace := flag.Bool("trace", false,
		"after the run, fetch and render the assembled span tree for the slowest traced request of each op")
	flag.Parse()

	cfg := loadgen.Config{
		Targets:     splitTargets(*targets),
		Duration:    *duration,
		Concurrency: *concurrency,
		Circuit:     *circuit,
		Seeds:       *seeds,
		Effort:      *effort,
		Iterations:  *iterations,
		BDIOSteps:   *bdioSteps,
		Portfolio:   *portfolio,
		Batch:       *batch,
		Timeout:     *timeout,
		Seed:        *seed,
	}
	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg.Mix = mix
	if *smoke {
		cfg.Duration = 3 * time.Second
		cfg.Concurrency = 4
		cfg.Seeds = 2
		cfg.Iterations = 20
		cfg.BDIOSteps = 40
		cfg.Batch = 4
		cfg.Timeout = 30 * time.Second
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if !*asJSON {
		fmt.Fprintf(os.Stderr, "mpsload: %d workers, %s, mix %s, %d targets\n",
			cfg.Concurrency, cfg.Duration, *mixFlag, len(cfg.Targets))
	}
	// Before-scrape first, so the diff attributes exactly this run's
	// traffic even against a daemon that has been serving for days.
	var before *loadgen.Scrape
	scrapeClient := &http.Client{Timeout: 10 * time.Second}
	if *scrape {
		if before, err = loadgen.ScrapeAll(ctx, scrapeClient, cfg.Targets); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	res, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var serverDiff *loadgen.Scrape
	if *scrape {
		after, err := loadgen.ScrapeAll(context.Background(), scrapeClient, cfg.Targets)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		serverDiff = after.Sub(before)
	}

	if *asJSON {
		summary := res.Summary()
		if serverDiff != nil {
			summary["server"] = res.ServerSummary(serverDiff)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		fmt.Print(res.Table())
		if serverDiff != nil {
			fmt.Println()
			fmt.Print(res.CompareServer(serverDiff))
		}
	}
	if *trace {
		printTraces(res, scrapeClient, *asJSON)
	}
	if *smoke && (res.Errors > 0 || res.Requests == 0) {
		fmt.Fprintf(os.Stderr, "mpsload: smoke run saw %d errors over %d requests\n", res.Errors, res.Requests)
		os.Exit(1)
	}
}

// printTraces fetches the assembled span tree for each op's slowest
// traced request (the exemplars the result carries) and renders it. The
// entry node assembles the cross-node tree server-side; failures are
// reported per trace and never change the exit status — tracing is a
// diagnostic overlay, not part of the measurement.
func printTraces(res *loadgen.Result, client *http.Client, asJSON bool) {
	exemplars := res.Exemplars()
	if len(exemplars) == 0 {
		fmt.Fprintln(os.Stderr, "mpsload: no traced requests (do the targets serve X-Mps-Trace-Id?)")
		return
	}
	ops := make([]string, 0, len(exemplars))
	for op := range exemplars {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	out := os.Stdout
	if asJSON {
		// Keep stdout pure JSON for pipelines; trees go to stderr.
		out = os.Stderr
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, op := range ops {
		// Slowest first, falling through tail-sampled-out traces: the
		// daemon only guarantees retention for slow, failed, and
		// cross-node requests, so the very slowest may be gone.
		rendered := false
		for _, ex := range exemplars[op] {
			at, err := loadgen.FetchTrace(ctx, client, ex.Target, ex.TraceID)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpsload: trace for %s (%s): %v\n", op, ex.TraceID, err)
				continue
			}
			fmt.Fprintf(out, "\nslowest retained %s (client %s):\n%s", op, ex.Duration, loadgen.RenderTrace(at))
			rendered = true
			break
		}
		if !rendered {
			fmt.Fprintf(os.Stderr,
				"mpsload: no retained trace for %s — run mpsd with -slow-query to pin slow traces\n", op)
		}
	}
}

func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(t), "/")); t != "" {
			out = append(out, t)
		}
	}
	return out
}
