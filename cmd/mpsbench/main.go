// Command mpsbench regenerates every table and figure of the paper's
// evaluation section and writes the results to stdout plus, for the
// figures, to files in an output directory.
//
// Usage:
//
//	mpsbench -all [-effort quick|standard|full] [-seed 1] [-out results/]
//	mpsbench -table1 -table2
//	mpsbench -fig5 -fig6 -fig7 -out results/
//	mpsbench -saveload              # on-disk codec comparison (gob v1 vs binary v2)
//	mpsbench -portfolio 3           # best-of-K portfolio study: coverage and
//	                                # mean-area deltas vs a single structure
//	mpsbench -pareto 3              # Pareto portfolio study: weight-diverse vs
//	                                # seed-diverse members at equal K, coverage
//	                                # and per-objective routed cost; with -json
//	                                # the rows land in BENCH_results.json under
//	                                # "pareto"
//	mpsbench -backends              # generation-backend comparison (anneal vs
//	                                # ga): coverage/cost/wall-clock per circuit;
//	                                # with -json the rows land in
//	                                # BENCH_results.json under "backends"
//	mpsbench -micro [-json]         # serving-stack micro-benchmarks; -json also
//	                                # writes machine-readable BENCH_results.json
//	                                # (op names, ns/op, bytes/op) for CI archiving
//	mpsbench -json -compare BENCH_baseline.json [-tolerance 0.30]
//	                                # CI perf-regression gate: run the micro
//	                                # benchmarks, write the results, and exit 1
//	                                # when any op allocates more than the
//	                                # baseline (exact) or is slower beyond the
//	                                # tolerance
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"mps/internal/cost"
	"mps/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpsbench: ")

	table1 := flag.Bool("table1", false, "reproduce Table 1 (benchmark suite)")
	table2 := flag.Bool("table2", false, "reproduce Table 2 (generation/instantiation)")
	fig5 := flag.Bool("fig5", false, "reproduce Figure 5 (two-stage opamp instantiations)")
	fig6 := flag.Bool("fig6", false, "reproduce Figure 6 (lowest-cost selection sweep)")
	fig7 := flag.Bool("fig7", false, "reproduce Figure 7 (tso-cascode instantiation)")
	scaling := flag.Bool("scaling", false, "run the block-count scaling study (extension)")
	synthCmp := flag.Bool("synth", false, "run the Fig. 1b synthesis-loop provider comparison (extension)")
	saveload := flag.Bool("saveload", false, "benchmark the on-disk codecs: gob v1 vs binary v2 per circuit (extension)")
	portfolioK := flag.Int("portfolio", 0, "best-of-K portfolio study: coverage and mean-area deltas vs K=1 (0 = off; try 3)")
	paretoK := flag.Int("pareto", 0, "Pareto portfolio study: weight-diverse vs seed-diverse members at equal K (0 = off; try 3); with -json the rows land in BENCH_results.json under \"pareto\"")
	backends := flag.Bool("backends", false, "compare generation backends (anneal, ga, ...) per circuit: coverage, cost, wall clock")
	micro := flag.Bool("micro", false, "run the serving-stack micro-benchmarks (generate, instantiate, codecs)")
	jsonOut := flag.Bool("json", false, "write micro-benchmark results to BENCH_results.json (implies -micro; lands in -out when set)")
	compare := flag.String("compare", "", "baseline BENCH_*.json to gate the micro-benchmarks against (implies -micro); exit 1 on regression")
	tolerance := flag.Float64("tolerance", experiments.DefaultNsTolerance, "fractional ns/op growth allowed by -compare (allocs/op are gated exactly)")
	all := flag.Bool("all", false, "reproduce everything")
	effortFlag := flag.String("effort", "standard", "generation budget: quick, standard, full")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "directory for figure files (optional)")
	flag.Parse()

	if *jsonOut || *compare != "" {
		*micro = true
	}
	if *all {
		*table1, *table2, *fig5, *fig6, *fig7 = true, true, true, true, true
		*scaling, *synthCmp, *saveload, *micro, *backends = true, true, true, true, true
		if *portfolioK == 0 {
			*portfolioK = 3
		}
		if *paretoK == 0 {
			*paretoK = 3
		}
	}
	if !(*table1 || *table2 || *fig5 || *fig6 || *fig7 || *scaling || *synthCmp || *saveload || *micro || *backends || *portfolioK > 0 || *paretoK > 0) {
		flag.Usage()
		os.Exit(2)
	}

	var effort experiments.Effort
	switch strings.ToLower(*effortFlag) {
	case "quick":
		effort = experiments.EffortQuick
	case "standard":
		effort = experiments.EffortStandard
	case "full":
		effort = experiments.EffortFull
	default:
		log.Fatalf("unknown effort %q", *effortFlag)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	if *table1 {
		if err := experiments.Table1(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *table2 {
		if _, err := experiments.RunTable2(os.Stdout, effort, *seed); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *fig5 {
		s, _, err := experiments.GenerateForBenchmark("TwoStageOpamp", effort, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fig, err := experiments.RunFigure5(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 5a: two-stage opamp at 30% of dimension ranges (from structure)")
		fmt.Print(fig.ASCIIa)
		fmt.Println("Figure 5b: two-stage opamp at 85% of dimension ranges (from structure)")
		fmt.Print(fig.ASCIIb)
		fmt.Println("Figure 5c: fixed template at 30% of dimension ranges (baseline)")
		fmt.Print(fig.ASCIIc)
		fmt.Printf("distinct stored placements for (a) vs (b): %v\n\n", fig.Distinct)
		writeFile(*out, "fig5a.svg", fig.SVGa)
		writeFile(*out, "fig5b.svg", fig.SVGb)
		writeFile(*out, "fig5c.svg", fig.SVGc)
	}
	if *fig6 {
		s, _, err := experiments.GenerateForBenchmark("TwoStageOpamp", effort, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fig, err := experiments.RunFigure6(s, cost.DefaultWeights, 40)
		if err != nil {
			log.Fatal(err)
		}
		experiments.RenderFigure6(os.Stdout, fig)
		fmt.Println()
		if err := experiments.PlotFigure6(os.Stdout, fig); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *fig7 {
		s, _, err := experiments.GenerateForBenchmark("tso-cascode", effort, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fig, err := experiments.RunFigure7(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 7: tso-cascode instantiation (21 modules)")
		fmt.Print(fig.ASCII)
		fmt.Println()
		writeFile(*out, "fig7.svg", fig.SVG)
	}
	if *scaling {
		if _, err := experiments.RunScaling(os.Stdout, []int{4, 8, 12, 16, 20, 25}, effort, *seed); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *saveload {
		if _, err := experiments.RunSaveLoad(os.Stdout, effort, *seed); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *synthCmp {
		s, _, err := experiments.GenerateForBenchmark("Mixer", effort, *seed)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := experiments.RunSynthComparison(os.Stdout, s, *seed); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	if *portfolioK > 0 {
		if _, err := experiments.RunPortfolio(os.Stdout, effort, *seed, *portfolioK); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	var paretoRows []experiments.ParetoRow
	if *paretoK > 0 {
		rows, err := experiments.RunPareto(os.Stdout, effort, *seed, *paretoK)
		if err != nil {
			log.Fatal(err)
		}
		paretoRows = rows
		fmt.Println()
	}
	var backendRows []experiments.BackendRow
	if *backends {
		rows, err := experiments.RunBackends(os.Stdout, effort, *seed)
		if err != nil {
			log.Fatal(err)
		}
		backendRows = rows
		fmt.Println()
	}
	if *micro {
		results, err := experiments.RunMicro(os.Stdout, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		if *jsonOut {
			dir := *out
			if dir == "" {
				dir = "."
			}
			path := filepath.Join(dir, "BENCH_results.json")
			if err := experiments.WriteBenchReport(path, *seed, results, backendRows, paretoRows); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
		if *compare != "" {
			baseline, err := experiments.ReadBenchJSON(*compare)
			if err != nil {
				log.Fatal(err)
			}
			deltas, regressed := experiments.CompareBench(baseline.Results, results, *tolerance)
			fmt.Printf("Regression gate vs %s (ns/op tolerance %.0f%%, allocs exact)\n",
				*compare, *tolerance*100)
			experiments.RenderBenchDeltas(os.Stdout, deltas)
			if regressed {
				log.Fatal("performance regression detected (see above)")
			}
			fmt.Println("no regressions")
		}
	}
}

func writeFile(dir, name, content string) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}
