// Command mpsinfo inspects a saved multi-placement structure: summary
// metrics, row occupancy, cost distribution, and optional full JSON export.
//
// Usage:
//
//	mpsinfo -circuit TwoStageOpamp -in tso.mps
//	mpsinfo -circuit TwoStageOpamp -in tso.mps -json tso.json
//
// Every structure file format (binary v2, plus legacy v3 and gob v1) loads
// transparently.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"mps"
	"mps/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpsinfo: ")

	circuitName := flag.String("circuit", "", "benchmark circuit name")
	in := flag.String("in", "", "structure file written by mpsgen")
	jsonPath := flag.String("json", "", "write full JSON export to this file")
	samples := flag.Int("samples", 5000, "Monte-Carlo samples for hit-rate estimate")
	flag.Parse()

	if *circuitName == "" || *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	circuit, err := mps.Benchmark(*circuitName)
	if err != nil {
		log.Fatal(err)
	}
	s, err := mps.LoadFile(*in, circuit)
	if err != nil {
		log.Fatal(err)
	}

	sum := s.Summary()
	fmt.Printf("circuit:        %s (%d blocks, %d nets)\n", circuit.Name, circuit.N(), len(circuit.Nets))
	fmt.Printf("placements:     %d\n", sum.Placements)
	fmt.Printf("coverage:       %.4g exact volume fraction (log2 volume %.1f)\n",
		sum.Coverage, sum.CoverageLog2)
	fmt.Printf("hit rate:       %.1f%% of %d random queries answered by a stored placement\n",
		s.CoverageMonteCarlo(rand.New(rand.NewSource(1)), *samples)*100, *samples)
	fmt.Printf("mean avg cost:  %.2f\n", sum.MeanAvgCost)
	fmt.Printf("best cost seen: %.2f\n", sum.BestBestCost)
	fmt.Printf("row intervals:  %d total, %d in the fullest row\n", sum.RowIntervals, sum.MaxRowLength)

	if qs := s.CostQuantiles(4); qs != nil {
		fmt.Printf("cost quartiles: min %.2f  p25 %.2f  p50 %.2f  p75 %.2f  max %.2f\n",
			qs[0], qs[1], qs[2], qs[3], qs[4])
	}

	wl, hl := s.RowHistogram()
	tb := stats.NewTable("block", "name", "w-row intervals", "h-row intervals")
	for i, b := range circuit.Blocks {
		tb.AddRow(i, b.Name, wl[i], hl[i])
	}
	fmt.Println()
	tb.Render(os.Stdout)

	if err := s.CheckInvariants(); err != nil {
		log.Fatalf("INVARIANT VIOLATION: %v", err)
	}
	fmt.Println("\ninvariants: OK (eq. 5 holds; rows consistent)")

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := s.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}
